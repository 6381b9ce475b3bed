#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "server/flags.h"

namespace qatk::server {
namespace {

TEST(FlagTest, MatchesOnlyTheWholeNameBeforeTheFirstEquals) {
  const Flag port("--port=8080");
  EXPECT_TRUE(port.Is("--port"));
  EXPECT_FALSE(port.Is("--port-file"));
  EXPECT_FALSE(port.Is("--por"));
  EXPECT_EQ(port.name(), "--port");
  EXPECT_EQ(port.value(), "8080");

  EXPECT_FALSE(Flag("--port-file=/tmp/p").Is("--port"));
  EXPECT_EQ(Flag("--data-dir=a=b").value(), "a=b");
  EXPECT_TRUE(Flag("--host=").Is("--host"));
  EXPECT_EQ(Flag("--host=").value(), "");
  // Without '=' an argument sets no flag: it is reported as unknown.
  EXPECT_FALSE(Flag("--port").Is("--port"));
  EXPECT_FALSE(Flag("8080").Is("--port"));
}

TEST(FlagTest, ParsesWholeDecimalNumbers) {
  uint16_t port = 1;
  EXPECT_TRUE(Flag("--port=0").ParseNumber(&port));
  EXPECT_EQ(port, 0);
  EXPECT_TRUE(Flag("--port=65535").ParseNumber(&port));
  EXPECT_EQ(port, 65535);
  size_t threads = 0;
  EXPECT_TRUE(Flag("--threads=4").ParseNumber(&threads));
  EXPECT_EQ(threads, 4u);
  int timeout_ms = 0;
  EXPECT_TRUE(Flag("--idle-timeout-ms=-1").ParseNumber(&timeout_ms));
  EXPECT_EQ(timeout_ms, -1);
  uint32_t shards = 0;
  EXPECT_TRUE(Flag("--shards=007").ParseNumber(&shards));
  EXPECT_EQ(shards, 7u);
}

TEST(FlagTest, RejectsJunkAndLeavesTheFieldAlone) {
  for (const char* arg :
       {"--port=abc", "--port=", "--port=12abc", "--port=8080 ",
        "--port= 8080", "--port=+80", "--port=0x50", "--port=8.0",
        "--port=-1", "--port=65536", "--port=70000",
        "--port=99999999999999999999999"}) {
    uint16_t port = 4242;
    EXPECT_FALSE(Flag(arg).ParseNumber(&port)) << arg;
    EXPECT_EQ(port, 4242) << arg;
  }
}

TEST(FlagTest, RangeIsThatOfTheField) {
  // --port=70000 used to wrap to 4464 through a uint16_t cast.
  uint16_t port = 0;
  EXPECT_FALSE(Flag("--port=70000").ParseNumber(&port));
  uint32_t wide = 0;
  EXPECT_TRUE(Flag("--port=70000").ParseNumber(&wide));
  EXPECT_EQ(wide, 70000u);

  int ms = 0;
  EXPECT_TRUE(Flag("--drain-timeout-ms=2147483647").ParseNumber(&ms));
  EXPECT_EQ(ms, 2147483647);
  EXPECT_FALSE(Flag("--drain-timeout-ms=2147483648").ParseNumber(&ms));
  EXPECT_TRUE(Flag("--drain-timeout-ms=-2147483648").ParseNumber(&ms));
  EXPECT_FALSE(Flag("--drain-timeout-ms=-2147483649").ParseNumber(&ms));

  // Unsigned fields take no sign at all: std::stoul read "-1" as
  // SIZE_MAX.
  size_t threads = 3;
  EXPECT_FALSE(Flag("--threads=-1").ParseNumber(&threads));
  EXPECT_EQ(threads, 3u);
  uint32_t shards = 3;
  EXPECT_FALSE(Flag("--shards=4294967296").ParseNumber(&shards));
  EXPECT_EQ(shards, 3u);
}

}  // namespace
}  // namespace qatk::server
