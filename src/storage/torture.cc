#include "storage/torture.h"

#include <cstdio>
#include <map>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "storage/database.h"

namespace qatk::db {

namespace {

constexpr char kTable[] = "t";
constexpr char kIndex[] = "t_by_id";

/// One scripted workload operation. The whole script — DDL included — is
/// generated up front so the fault run replays exactly the dry run.
struct Op {
  enum Kind {
    kCreateTable,
    kCreateIndex,
    kInsert,
    kUpdate,
    kDelete,
    kCheckpoint,
  };
  Kind kind = kInsert;
  int64_t id = 0;
  /// Initialized like the other members, so `{Op::kCheckpoint}` sets every
  /// field (-Wmissing-field-initializers).
  std::string val = {};
};

/// Logical database contents the workload should have produced; compared
/// against what recovery actually restores.
struct ShadowState {
  bool has_table = false;
  bool has_index = false;
  std::map<int64_t, std::string> rows;

  bool operator==(const ShadowState&) const = default;
};

void ApplyToShadow(const Op& op, ShadowState* state) {
  switch (op.kind) {
    case Op::kCreateTable:
      state->has_table = true;
      break;
    case Op::kCreateIndex:
      state->has_index = true;
      break;
    case Op::kInsert:
    case Op::kUpdate:
      state->rows[op.id] = op.val;
      break;
    case Op::kDelete:
      state->rows.erase(op.id);
      break;
    case Op::kCheckpoint:
      break;
  }
}

std::string RandomVal(Rng* rng) {
  // Mostly short values with an occasional long one, so pages fill and
  // chain at a realistic rate within a small script.
  size_t len = 1 + rng->NextBounded(rng->NextBernoulli(0.15) ? 600 : 40);
  std::string out;
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    out.push_back(static_cast<char>('a' + rng->NextBounded(26)));
  }
  return out;
}

std::vector<Op> BuildScript(const TortureOptions& options, Rng* rng) {
  std::vector<Op> script;
  script.push_back({Op::kCreateTable});
  script.push_back({Op::kCreateIndex});
  int64_t next_id = 0;
  std::vector<int64_t> live;
  for (int i = 0; i < options.seed_rows; ++i) {
    Op op;
    op.kind = Op::kInsert;
    op.id = next_id++;
    op.val = RandomVal(rng);
    live.push_back(op.id);
    script.push_back(std::move(op));
  }
  script.push_back({Op::kCheckpoint});
  for (int i = 0; i < options.num_ops; ++i) {
    double roll = rng->NextDouble();
    Op op;
    if (live.empty() || roll < 0.45) {
      op.kind = Op::kInsert;
      op.id = next_id++;
      op.val = RandomVal(rng);
      live.push_back(op.id);
    } else if (roll < 0.70) {
      op.kind = Op::kUpdate;
      op.id = live[rng->NextBounded(live.size())];
      op.val = RandomVal(rng);
    } else if (roll < 0.85) {
      size_t pos = rng->NextBounded(live.size());
      op.kind = Op::kDelete;
      op.id = live[pos];
      live.erase(live.begin() + static_cast<ptrdiff_t>(pos));
    } else {
      op.kind = Op::kCheckpoint;
    }
    script.push_back(std::move(op));
  }
  // End on a checkpoint so a run the crash never reaches closes cleanly.
  script.push_back({Op::kCheckpoint});
  return script;
}

Status ExecuteOp(Database* db, const Op& op,
                 std::unordered_map<int64_t, Rid>* rids) {
  switch (op.kind) {
    case Op::kCreateTable:
      return db->CreateTable(
          kTable, Schema({{"id", TypeId::kInt64}, {"val", TypeId::kString}}));
    case Op::kCreateIndex:
      return db->CreateIndex(kIndex, kTable, {"id"});
    case Op::kInsert: {
      Tuple tuple(std::vector<Value>{Value(op.id), Value(op.val)});
      QATK_ASSIGN_OR_RETURN(Rid rid, db->Insert(kTable, tuple));
      (*rids)[op.id] = rid;
      return Status::OK();
    }
    case Op::kUpdate: {
      Tuple tuple(std::vector<Value>{Value(op.id), Value(op.val)});
      QATK_ASSIGN_OR_RETURN(Rid rid,
                            db->Update(kTable, rids->at(op.id), tuple));
      (*rids)[op.id] = rid;
      return Status::OK();
    }
    case Op::kDelete: {
      QATK_RETURN_NOT_OK(db->Delete(kTable, rids->at(op.id)));
      rids->erase(op.id);
      return Status::OK();
    }
    case Op::kCheckpoint:
      return db->Checkpoint();
  }
  return Status::Internal("unreachable op kind");
}

void RemoveFiles(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  std::remove((path + ".journal").c_str());
}

struct RunResult {
  bool crashed = false;
  /// Index of the in-flight operation when the crash hit (0 when the
  /// crash landed inside the initial open, before any operation).
  size_t crash_index = 0;
  /// Set on a failure that is NOT a simulated crash.
  Status error;
};

RunResult RunScript(const std::vector<Op>& script,
                    const TortureOptions& options, FaultInjector* fault) {
  RunResult out;
  RemoveFiles(options.path);
  Database::OpenOptions open;
  open.pool_pages = options.pool_pages;
  open.fault = fault;
  Result<std::unique_ptr<Database>> db = Database::OpenFile(options.path, open);
  if (!db.ok()) {
    if (fault != nullptr && fault->crashed()) {
      out.crashed = true;
      out.crash_index = 0;
    } else {
      out.error = db.status();
    }
    return out;
  }
  std::unordered_map<int64_t, Rid> rids;
  for (size_t k = 0; k < script.size(); ++k) {
    Status st = ExecuteOp(db.ValueOrDie().get(), script[k], &rids);
    if (st.ok()) continue;
    if (fault != nullptr && fault->crashed()) {
      out.crashed = true;
      out.crash_index = k;
    } else {
      out.error = st;
    }
    break;
  }
  // The Database is destroyed here without flushing anything — for a
  // crashed run this leaves the files exactly as a killed process would.
  return out;
}

/// Reopens the database cleanly and reads back its logical contents,
/// verifying index/table agreement and B+-tree invariants along the way.
Result<ShadowState> ReadState(const TortureOptions& options) {
  ShadowState state;
  QATK_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                        Database::OpenFile(options.path, options.pool_pages));
  state.has_table = !db->ListTables().empty();
  state.has_index = !db->ListIndexes().empty();
  if (state.has_table) {
    QATK_RETURN_NOT_OK(
        db->ScanTable(kTable, [&](const Rid&, const Tuple& tuple) {
          state.rows[tuple.value(0).AsInt64()] = tuple.value(1).AsString();
          return true;
        }));
  }
  if (state.has_index) {
    size_t entries = 0;
    QATK_RETURN_NOT_OK(db->ScanIndexRange(kIndex, Value::Null(), Value::Null(),
                                          false, [&](const Rid&) {
                                            ++entries;
                                            return true;
                                          }));
    if (entries != state.rows.size()) {
      return Status::Internal(
          "index/table mismatch after recovery: " + std::to_string(entries) +
          " index entries for " + std::to_string(state.rows.size()) + " rows");
    }
    for (const auto& [id, val] : state.rows) {
      size_t hits = 0;
      QATK_RETURN_NOT_OK(db->ScanIndexEquals(kIndex, {Value(id)},
                                             [&](const Rid&) {
                                               ++hits;
                                               return true;
                                             }));
      if (hits != 1) {
        return Status::Internal("index lookup for id " + std::to_string(id) +
                                " returned " + std::to_string(hits) +
                                " rows after recovery");
      }
    }
    QATK_ASSIGN_OR_RETURN(IndexInfo * info, db->GetIndex(kIndex));
    QATK_RETURN_NOT_OK(info->tree->CheckInvariants());
  }
  return state;
}

}  // namespace

TortureReport RunCrashSchedule(const TortureOptions& options) {
  TortureReport report;
  Rng rng(options.seed);
  std::vector<Op> script = BuildScript(options, &rng);

  // Dry run, fault-free, to learn how many injection points the workload
  // passes — the population the crash point is drawn from.
  FaultInjector counter;
  RunResult dry = RunScript(script, options, &counter);
  if (dry.crashed || !dry.error.ok()) {
    report.detail = "fault-free dry run failed: " + dry.error.ToString();
    return report;
  }
  uint64_t total_ops = counter.ops_observed();
  if (total_ops == 0) {
    report.detail = "dry run observed no fault-injection points";
    return report;
  }

  // Arm the schedule: one crash — sometimes a torn write — plus up to two
  // transient disk faults the buffer pool's retry policy must absorb
  // without any visible effect.
  std::vector<Fault> faults;
  Fault crash;
  crash.op = "*";
  crash.kind = FaultKind::kCrash;
  crash.countdown = static_cast<uint32_t>(rng.NextBounded(total_ops));
  if (rng.NextBernoulli(0.3)) {
    std::string torn_op = rng.NextBernoulli(0.5) ? "disk.write" : "wal.append";
    auto it = counter.op_counts().find(torn_op);
    if (it != counter.op_counts().end() && it->second > 0) {
      crash.op = torn_op;
      crash.kind = FaultKind::kTorn;
      crash.torn_fraction = rng.NextDouble();
      crash.countdown = static_cast<uint32_t>(rng.NextBounded(it->second));
    }
  }
  faults.push_back(crash);
  int transients = static_cast<int>(rng.NextBounded(3));
  for (int i = 0; i < transients; ++i) {
    Fault f;
    f.op = rng.NextBernoulli(0.5) ? "disk.read" : "disk.write";
    f.kind = FaultKind::kTransient;
    auto it = counter.op_counts().find(f.op);
    if (it == counter.op_counts().end() || it->second == 0) continue;
    f.countdown = static_cast<uint32_t>(rng.NextBounded(it->second));
    faults.push_back(f);
  }

  FaultInjector injector{faults};
  report.schedule = injector.Describe();
  RunResult run = RunScript(script, options, &injector);
  if (!run.crashed && !run.error.ok()) {
    report.detail =
        "operation failed without a crash: " + run.error.ToString();
    return report;
  }
  report.crashed = run.crashed;

  Result<ShadowState> actual = ReadState(options);
  if (!actual.ok()) {
    report.detail = "recovery reopen failed: " + actual.status().ToString();
    return report;
  }

  // The shadow candidates: everything before the in-flight operation, and
  // that plus the in-flight operation. Recovery must restore exactly one
  // of the two — an operation is atomic or absent, never half-applied.
  ShadowState before;
  size_t applied = run.crashed ? run.crash_index : script.size();
  for (size_t i = 0; i < applied; ++i) ApplyToShadow(script[i], &before);
  ShadowState after = before;
  if (run.crashed && run.crash_index < script.size()) {
    ApplyToShadow(script[run.crash_index], &after);
  }
  const ShadowState& got = actual.ValueOrDie();
  if (got == before || got == after) {
    report.ok = true;
    return report;
  }
  std::ostringstream os;
  os << "recovered state matches neither candidate (crash at op "
     << (run.crashed ? std::to_string(run.crash_index) : std::string("none"))
     << " of " << script.size() << "): recovered " << got.rows.size()
     << " rows (table=" << got.has_table << ", index=" << got.has_index
     << "), expected " << before.rows.size() << " or " << after.rows.size()
     << " rows";
  report.detail = os.str();
  return report;
}

}  // namespace qatk::db
