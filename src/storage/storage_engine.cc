#include "storage/storage_engine.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <unordered_map>

#include "base/failpoint.h"
#include "base/serde.h"
#include "base/trace.h"
#include "ir/printer.h"
#include "parser/parser.h"

namespace aqv {

namespace {

constexpr uint32_t kMetaMagic = 0x4d565141;  // "AQVM"
constexpr uint32_t kDirMagic = 0x44565141;   // "AQVD"
// v2: data-page records carry a continuation flag byte (overflow chains
// for rows larger than one page record).
constexpr uint32_t kFormatVersion = 2;

// Data-page record framing: the first byte says whether the row continues
// in the next record of the page stream.
constexpr char kRecordFinal = '\x00';
constexpr char kRecordContinues = '\x01';
constexpr size_t kMaxChunkSize = Page::kMaxRecordSize - 1;

using Clock = std::chrono::steady_clock;

/// Parsed contents of a meta-page record.
struct MetaRecord {
  uint64_t generation = 0;
  uint64_t commit_seq = 0;
  uint64_t blob_size = 0;
  std::vector<uint32_t> directory_pages;
};

void EncodeMeta(const MetaRecord& meta, std::string* out) {
  PutFixed32(out, kMetaMagic);
  PutFixed32(out, kFormatVersion);
  PutFixed64(out, meta.generation);
  PutFixed64(out, meta.commit_seq);
  PutFixed64(out, meta.blob_size);
  PutVarint64(out, meta.directory_pages.size());
  for (uint32_t id : meta.directory_pages) PutFixed32(out, id);
}

Result<MetaRecord> DecodeMeta(std::string_view record) {
  ByteReader reader(record);
  AQV_ASSIGN_OR_RETURN(uint32_t magic, reader.ReadFixed32());
  if (magic != kMetaMagic) {
    return Status::InvalidArgument("meta page has wrong magic");
  }
  AQV_ASSIGN_OR_RETURN(uint32_t format, reader.ReadFixed32());
  if (format != kFormatVersion) {
    return Status::Unsupported("db file format " + std::to_string(format) +
                               " does not match this binary's format " +
                               std::to_string(kFormatVersion));
  }
  MetaRecord meta;
  AQV_ASSIGN_OR_RETURN(meta.generation, reader.ReadFixed64());
  AQV_ASSIGN_OR_RETURN(meta.commit_seq, reader.ReadFixed64());
  AQV_ASSIGN_OR_RETURN(meta.blob_size, reader.ReadFixed64());
  AQV_ASSIGN_OR_RETURN(uint64_t pages, reader.ReadVarint64());
  meta.directory_pages.reserve(pages);
  for (uint64_t i = 0; i < pages; ++i) {
    AQV_ASSIGN_OR_RETURN(uint32_t id, reader.ReadFixed32());
    meta.directory_pages.push_back(id);
  }
  return meta;
}

/// One stored table in the directory: schema plus where its rows live.
struct TableEntry {
  std::string name;
  std::vector<std::string> columns;
  uint64_t row_count = 0;
  std::vector<uint32_t> pages;
};

/// Base tables a view reads, transitively through other views.
std::set<std::string> ViewClosure(const ViewRegistry& views,
                                  const std::string& name) {
  std::set<std::string> closure;
  std::vector<std::string> stack = {name};
  while (!stack.empty()) {
    std::string current = std::move(stack.back());
    stack.pop_back();
    Result<const ViewDef*> def = views.Get(current);
    if (!def.ok()) continue;
    for (const TableRef& ref : (*def)->query.from) {
      if (!closure.insert(ref.table).second) continue;
      if (views.Has(ref.table)) stack.push_back(ref.table);
    }
  }
  return closure;
}

}  // namespace

void EncodeDelta(const Delta& delta, std::string* out) {
  auto encode_side =
      [out](const std::map<std::string, std::vector<Row>>& side) {
        PutVarint64(out, side.size());
        for (const auto& [table, rows] : side) {
          PutLengthPrefixed(out, table);
          PutVarint64(out, rows.size());
          for (const Row& row : rows) EncodeRow(row, out);
        }
      };
  encode_side(delta.inserts);
  encode_side(delta.deletes);
}

Result<Delta> DecodeDelta(ByteReader* reader) {
  Delta delta;
  auto decode_side =
      [reader](std::map<std::string, std::vector<Row>>* side) -> Status {
    AQV_ASSIGN_OR_RETURN(uint64_t tables, reader->ReadVarint64());
    for (uint64_t t = 0; t < tables; ++t) {
      AQV_ASSIGN_OR_RETURN(std::string_view name,
                           reader->ReadLengthPrefixed());
      AQV_ASSIGN_OR_RETURN(uint64_t count, reader->ReadVarint64());
      std::vector<Row>& rows = (*side)[std::string(name)];
      rows.reserve(count);
      for (uint64_t i = 0; i < count; ++i) {
        AQV_ASSIGN_OR_RETURN(Row row, DecodeRow(reader));
        rows.push_back(std::move(row));
      }
    }
    return Status::OK();
  };
  AQV_RETURN_NOT_OK(decode_side(&delta.inserts));
  AQV_RETURN_NOT_OK(decode_side(&delta.deletes));
  return delta;
}

Result<std::unique_ptr<StorageEngine>> StorageEngine::Open(
    StorageOptions options, MetricsRegistry* metrics) {
  auto engine =
      std::unique_ptr<StorageEngine>(new StorageEngine(std::move(options)));
  AQV_ASSIGN_OR_RETURN(engine->disk_, DiskManager::Open(engine->options_.path));
  if (metrics != nullptr) {
    engine->disk_->SetMetrics(&metrics->GetCounter("storage.pages_read"),
                              &metrics->GetCounter("storage.pages_written"));
    engine->recoveries_ = &metrics->GetCounter("storage.recoveries");
    engine->checkpoints_ = &metrics->GetCounter("storage.checkpoints");
    engine->wal_replayed_ = &metrics->GetCounter("storage.wal_replayed");
    engine->recovery_ms_ = &metrics->GetGauge("storage.recovery_ms");
    engine->recovery_replay_ms_ =
        &metrics->GetGauge("storage.recovery_replay_ms");
    engine->checkpoint_latency_ =
        &metrics->GetHistogram("storage.checkpoint_latency");
    engine->wal_size_gauge_ = &metrics->GetGauge("storage.wal_size_bytes");
    engine->group_commit_batch_ =
        &metrics->GetHistogram("storage.group_commit_batch");
    engine->pages_quarantined_ =
        &metrics->GetCounter("storage.pages_quarantined_total");
  }
  AQV_RETURN_NOT_OK(engine->Recover(metrics));
  return engine;
}

Status StorageEngine::Recover(MetricsRegistry* metrics) {
  TraceSpan span("storage.recovery");
  Clock::time_point start = Clock::now();

  // Pick the live checkpoint: of the two meta pages, the checksummed,
  // well-formed record with the highest generation wins. A fresh file (or
  // one whose first checkpoint died mid-write) has none — empty database.
  std::optional<MetaRecord> live;
  for (uint32_t meta_id = 0; meta_id <= 1; ++meta_id) {
    if (meta_id >= disk_->page_count()) continue;
    Page page;
    if (!disk_->ReadPage(meta_id, &page).ok()) continue;
    if (!page.VerifyChecksum() || page.slot_count() < 1) continue;
    Result<std::string_view> record = page.GetRecord(0);
    if (!record.ok()) continue;
    Result<MetaRecord> meta = DecodeMeta(*record);
    if (!meta.ok() || meta->generation == 0) continue;
    if (!live.has_value() || meta->generation > live->generation) {
      live = *std::move(meta);
    }
  }

  if (live.has_value()) {
    generation_ = live->generation;
    checkpoint_seq_ = live->commit_seq;
    last_seq_ = live->commit_seq;
    recovered_.from_checkpoint = true;

    // Reassemble the directory blob from its page chain.
    std::string blob;
    blob.reserve(live->blob_size);
    Page page;
    for (uint32_t page_id : live->directory_pages) {
      AQV_RETURN_NOT_OK(disk_->ReadPage(page_id, &page));
      if (!page.VerifyChecksum()) {
        return Status::Unavailable("directory page " +
                                   std::to_string(page_id) +
                                   " failed its checksum");
      }
      AQV_ASSIGN_OR_RETURN(std::string_view chunk, page.GetRecord(0));
      blob.append(chunk.data(), chunk.size());
    }
    if (blob.size() != live->blob_size) {
      return Status::Unavailable("directory blob truncated: expected " +
                                 std::to_string(live->blob_size) + " bytes, " +
                                 "got " + std::to_string(blob.size()));
    }
    live_pages_.insert(live->directory_pages.begin(),
                       live->directory_pages.end());
    directory_pages_ = live->directory_pages;
    AQV_RETURN_NOT_OK(LoadCheckpoint(blob));
  }

  // Replay is timed separately from whole-recovery: the service's recovery
  // report splits the WAL-replay phase from the view-recompute phase it
  // runs afterwards, so slow restarts can be blamed on the right stage.
  Clock::time_point replay_start = Clock::now();
  AQV_RETURN_NOT_OK(ReplayWal());
  if (recovery_replay_ms_ != nullptr) {
    recovery_replay_ms_->Set(static_cast<int64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                              replay_start)
            .count()));
  }

  // Snapshot the derived quarantine (persisted entries, page rot, mid-log
  // tears alike): the next checkpoint serializes it into the directory, so
  // the quarantine outlives the very cleanup — page rewrites, the WAL-tail
  // trim just below — that destroys the evidence it was derived from.
  quarantine_ = recovered_.quarantined_tables;

  // Open the writer last: ReplayWal measured the clean prefix, and opening
  // with it trims any torn tail before the first new append.
  AQV_ASSIGN_OR_RETURN(
      wal_, LogWriter::Open(options_.path + ".wal", options_.fsync_wal,
                            wal_valid_prefix_));
  if (metrics != nullptr) {
    wal_->SetMetrics(&metrics->GetCounter("storage.wal_bytes"),
                     &metrics->GetCounter("storage.wal_fsyncs"),
                     &metrics->GetCounter("storage.wal_records"),
                     &metrics->GetHistogram("storage.wal_fsync_latency"));
  }
  // Everything on disk at open is as durable as it will ever be: start the
  // group-commit watermarks at the recovered log size.
  wal_synced_offset_ = wal_->size_bytes();
  wal_appended_offset_.store(wal_->size_bytes(), std::memory_order_release);
  if (wal_size_gauge_ != nullptr) {
    wal_size_gauge_->Set(static_cast<int64_t>(wal_->size_bytes()));
  }

  recovered_.last_commit_seq = last_seq_;
  uint64_t elapsed_ms = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                            start)
          .count());
  if (recovery_ms_ != nullptr) {
    recovery_ms_->Set(static_cast<int64_t>(elapsed_ms));
  }
  if (recoveries_ != nullptr) recoveries_->Increment();
  if (span.active()) {
    span.AddAttr("replayed_commits", recovered_.replayed_commits);
    span.AddAttr("stale_views",
                 static_cast<uint64_t>(recovered_.stale_views.size()));
    span.AddAttr("from_checkpoint",
                 recovered_.from_checkpoint ? "true" : "false");
  }
  return Status::OK();
}

Status StorageEngine::LoadCheckpoint(const std::string& blob) {
  ByteReader reader(blob);
  AQV_ASSIGN_OR_RETURN(uint32_t magic, reader.ReadFixed32());
  if (magic != kDirMagic) {
    return Status::Unavailable("directory blob has wrong magic");
  }

  AQV_ASSIGN_OR_RETURN(std::string_view catalog_image,
                       reader.ReadLengthPrefixed());
  ByteReader catalog_reader(catalog_image);
  AQV_RETURN_NOT_OK(recovered_.catalog.DeserializeFrom(&catalog_reader));

  // Views travel as their CREATE VIEW SQL; the printed form names every
  // occurrence column explicitly, so re-parsing needs no catalog.
  AQV_ASSIGN_OR_RETURN(uint64_t num_views, reader.ReadVarint64());
  for (uint64_t i = 0; i < num_views; ++i) {
    AQV_ASSIGN_OR_RETURN(std::string_view sql, reader.ReadLengthPrefixed());
    AQV_ASSIGN_OR_RETURN(ViewDef view, ParseView(sql));
    AQV_RETURN_NOT_OK(recovered_.views.Register(std::move(view)));
  }

  AQV_ASSIGN_OR_RETURN(recovered_.plan_catalog_version, reader.ReadFixed64());
  AQV_ASSIGN_OR_RETURN(recovered_.plan_views_version, reader.ReadFixed64());
  AQV_ASSIGN_OR_RETURN(uint64_t num_plans, reader.ReadVarint64());
  for (uint64_t i = 0; i < num_plans; ++i) {
    PlanImage plan;
    AQV_ASSIGN_OR_RETURN(std::string_view key, reader.ReadLengthPrefixed());
    plan.key.assign(key);
    AQV_ASSIGN_OR_RETURN(std::string_view sql, reader.ReadLengthPrefixed());
    plan.plan_sql.assign(sql);
    AQV_ASSIGN_OR_RETURN(std::string_view flags, reader.ReadBytes(1));
    plan.used_materialized_view = flags[0] != 0;
    AQV_ASSIGN_OR_RETURN(uint64_t considered, reader.ReadVarint64());
    plan.rewritings_considered = static_cast<int>(considered);
    AQV_ASSIGN_OR_RETURN(plan.cost_original, reader.ReadDoubleBits());
    AQV_ASSIGN_OR_RETURN(plan.cost_chosen, reader.ReadDoubleBits());
    AQV_ASSIGN_OR_RETURN(uint64_t num_deps, reader.ReadVarint64());
    plan.dependencies.reserve(num_deps);
    for (uint64_t d = 0; d < num_deps; ++d) {
      AQV_ASSIGN_OR_RETURN(std::string_view dep, reader.ReadLengthPrefixed());
      plan.dependencies.emplace_back(dep);
    }
    recovered_.plans.push_back(std::move(plan));
  }

  AQV_ASSIGN_OR_RETURN(uint64_t num_tables, reader.ReadVarint64());
  std::vector<TableEntry> entries;
  entries.reserve(num_tables);
  for (uint64_t t = 0; t < num_tables; ++t) {
    TableEntry entry;
    AQV_ASSIGN_OR_RETURN(std::string_view name, reader.ReadLengthPrefixed());
    entry.name.assign(name);
    AQV_ASSIGN_OR_RETURN(uint64_t num_columns, reader.ReadVarint64());
    entry.columns.reserve(num_columns);
    for (uint64_t c = 0; c < num_columns; ++c) {
      AQV_ASSIGN_OR_RETURN(std::string_view column,
                           reader.ReadLengthPrefixed());
      entry.columns.emplace_back(column);
    }
    AQV_ASSIGN_OR_RETURN(entry.row_count, reader.ReadVarint64());
    AQV_ASSIGN_OR_RETURN(uint64_t num_pages, reader.ReadVarint64());
    entry.pages.reserve(num_pages);
    for (uint64_t p = 0; p < num_pages; ++p) {
      AQV_ASSIGN_OR_RETURN(uint32_t id, reader.ReadFixed32());
      entry.pages.push_back(id);
    }
    entries.push_back(std::move(entry));
  }

  // Quarantine entries the previous checkpoint persisted: tables whose
  // damage predates that checkpoint stay quarantined even though their
  // pages were rewritten clean from the salvage. A page failing its
  // checksum right now overwrites the entry with the fresher reason in
  // the materialization loop below.
  if (!reader.empty()) {
    AQV_ASSIGN_OR_RETURN(uint64_t num_quarantined, reader.ReadVarint64());
    for (uint64_t q = 0; q < num_quarantined; ++q) {
      AQV_ASSIGN_OR_RETURN(std::string_view name, reader.ReadLengthPrefixed());
      AQV_ASSIGN_OR_RETURN(std::string_view reason,
                           reader.ReadLengthPrefixed());
      recovered_.quarantined_tables.emplace(std::string(name),
                                            std::string(reason));
    }
  }

  // Materialize every stored table, publishing the whole batch at one
  // epoch — recovery lands on a single consistent state, never a torn one.
  // A table whose pages fail their checksum (or decode) is NOT fatal: it is
  // salvaged empty and quarantined, so everything checksummed-clean still
  // comes back and only the damaged table serves errors.
  std::vector<std::pair<std::string, TablePtr>> publish;
  publish.reserve(entries.size());
  for (const TableEntry& entry : entries) {
    Table table(entry.columns);
    Result<std::vector<Row>> rows = ReadRows(entry.pages, entry.row_count);
    if (rows.ok()) {
      Status added = table.AddRows(*rows);
      if (!added.ok()) rows = added;
    }
    if (!rows.ok()) {
      recovered_.quarantined_tables[entry.name] = rows.status().message();
      table = Table(entry.columns);
      if (pages_quarantined_ != nullptr) {
        pages_quarantined_->Increment(entry.pages.size());
      }
    }
    // Damaged pages stay reserved too: the shadow allocator must not hand
    // them out while the quarantined table's debris is still referenced by
    // the live directory.
    live_pages_.insert(entry.pages.begin(), entry.pages.end());
    table_pages_[entry.name] = entry.pages;
    publish.emplace_back(entry.name,
                         std::make_shared<const Table>(std::move(table)));
  }
  recovered_.db.PutAll(std::move(publish));
  return Status::OK();
}

Status StorageEngine::ReplayWal() {
  AQV_ASSIGN_OR_RETURN(WalContents wal, ReadLog(options_.path + ".wal"));
  wal_valid_prefix_ = wal.valid_bytes;

  // Mid-log corruption: a commit between the clean prefix and the intact
  // records after the tear is gone, so no table the log names can be
  // trusted — the lost record's targets are unknowable (its payload is the
  // garbage), but they can only be tables some surviving record also
  // names, or tables whose every trace was in the hole; quarantining every
  // table the log mentions is the sound over-approximation that never
  // serves rows missing an acknowledged commit. Tables only the checkpoint
  // knows are provably unaffected (the WAL is the sole post-checkpoint
  // mutation channel). The clean prefix still replays below — its state IS
  // correct up to the tear, which is the best salvage available.
  if (wal.mid_log_corruption) {
    recovered_.wal_mid_log_corruption = true;
    auto quarantine_tables_of = [this](const std::string& payload) {
      ByteReader reader(payload);
      Result<uint64_t> seq = reader.ReadFixed64();
      if (!seq.ok()) return;
      Result<Delta> delta = DecodeDelta(&reader);
      if (!delta.ok()) return;
      const std::string reason =
          "wal corrupted mid-log: a commit before sequence " +
          std::to_string(*seq) + " is unrecoverable";
      for (const auto& [table, rows] : delta->inserts) {
        recovered_.quarantined_tables.emplace(table, reason);
      }
      for (const auto& [table, rows] : delta->deletes) {
        recovered_.quarantined_tables.emplace(table, reason);
      }
    };
    for (const std::string& payload : wal.payloads) {
      quarantine_tables_of(payload);
    }
    for (const std::string& payload : wal.suspect_payloads) {
      quarantine_tables_of(payload);
    }
  }

  // Strip quarantined tables out of a delta: their salvage is already
  // suspect, and applying (say) a delete of rows a corrupt page lost would
  // abort the whole replay.
  auto strip_quarantined = [this](Delta* delta) {
    for (const auto& [table, reason] : recovered_.quarantined_tables) {
      delta->inserts.erase(table);
      delta->deletes.erase(table);
    }
  };

  // Staged replay applies every record into one in-memory staging image
  // (copy-on-first-touch from the checkpoint) and publishes ONE epoch,
  // instead of a COW publication per record, each of which copies the
  // table's tail chunk (E21). The per-record path is kept behind the option
  // as the bench baseline.
  std::map<std::string, Table> staging;
  auto staged_table = [&](const std::string& name) -> Result<Table*> {
    auto it = staging.find(name);
    if (it != staging.end()) return &it->second;
    AQV_ASSIGN_OR_RETURN(const Table* current, recovered_.db.Get(name));
    return &staging.emplace(name, *current).first->second;
  };

  std::set<std::string> touched;
  for (const std::string& payload : wal.payloads) {
    ByteReader reader(payload);
    AQV_ASSIGN_OR_RETURN(uint64_t seq, reader.ReadFixed64());
    // Records the live checkpoint already folded in (a crash between the
    // meta flip and the WAL truncate leaves them behind) replay as no-ops.
    if (seq <= checkpoint_seq_) continue;
    AQV_FAILPOINT("recovery.replay");
    AQV_ASSIGN_OR_RETURN(Delta delta, DecodeDelta(&reader));
    strip_quarantined(&delta);
    if (options_.staged_replay) {
      for (const auto& [table, rows] : delta.inserts) {
        AQV_ASSIGN_OR_RETURN(Table * staged, staged_table(table));
        AQV_RETURN_NOT_OK(staged->AddRows(rows));
      }
      for (const auto& [table, rows] : delta.deletes) {
        AQV_ASSIGN_OR_RETURN(Table * staged, staged_table(table));
        if (!staged->RemoveRows(rows).ok()) {
          return Status::InvalidArgument(
              "replayed delete removes a row not present in '" + table + "'");
        }
      }
    } else {
      AQV_RETURN_NOT_OK(ApplyDeltaToBase(delta, &recovered_.db));
    }
    for (const auto& [table, rows] : delta.inserts) touched.insert(table);
    for (const auto& [table, rows] : delta.deletes) touched.insert(table);
    last_seq_ = std::max(last_seq_, seq);
    ++recovered_.replayed_commits;
    if (wal_replayed_ != nullptr) wal_replayed_->Increment();
  }

  // Publish the whole staged tail at one epoch — the same none-or-all
  // contract LoadCheckpoint's PutAll gives the checkpoint image.
  if (!staging.empty()) {
    std::vector<std::pair<std::string, TablePtr>> publish;
    publish.reserve(staging.size());
    for (auto& [name, table] : staging) {
      publish.emplace_back(name,
                           std::make_shared<const Table>(std::move(table)));
    }
    recovered_.db.PutAll(std::move(publish));
  }

  // A stored view whose closure meets a replayed table still holds its
  // pre-replay checkpoint contents; one never checkpointed has none at all.
  // Either way the service must recompute it before first use.
  for (const std::string& view : recovered_.views.ViewNames()) {
    bool stale = !recovered_.db.Has(view);
    if (!stale && !touched.empty()) {
      std::set<std::string> closure = ViewClosure(recovered_.views, view);
      for (const std::string& table : touched) {
        if (closure.count(table) > 0) {
          stale = true;
          break;
        }
      }
    }
    if (stale) recovered_.stale_views.push_back(view);
  }
  return Status::OK();
}

namespace {

/// The one checksum gate every scrub-ish read goes through — recovery
/// materialization and the SCRUB pass alike. An injected `scrub.page` error
/// reads as a corrupt page, so the chaos suite can exercise quarantine
/// without editing files on disk.
Status VerifyDataPage(const Page& page, uint32_t page_id) {
  AQV_FAILPOINT("scrub.page");
  if (!page.VerifyChecksum()) {
    return Status::Unavailable("data page " + std::to_string(page_id) +
                               " failed its checksum");
  }
  return Status::OK();
}

/// Stamps the checksum and writes `page` at its own id — every page a
/// checkpoint writes (data, directory, meta) goes out through here.
Status WriteOut(DiskManager* disk, Page* page) {
  page->UpdateChecksum();
  return disk->WritePage(page->page_id(), *page);
}

}  // namespace

Result<std::vector<Row>> StorageEngine::ReadRows(
    const std::vector<uint32_t>& pages, size_t expected_rows) {
  std::vector<Row> rows;
  rows.reserve(expected_rows);
  std::string pending;  // overflow chain being reassembled
  Page page;
  for (uint32_t page_id : pages) {
    AQV_RETURN_NOT_OK(disk_->ReadPage(page_id, &page));
    AQV_RETURN_NOT_OK(VerifyDataPage(page, page_id));
    for (uint16_t slot = 0; slot < page.slot_count(); ++slot) {
      AQV_ASSIGN_OR_RETURN(std::string_view record, page.GetRecord(slot));
      if (record.empty()) {
        return Status::Unavailable("data page " + std::to_string(page_id) +
                                   " holds a record with no flag byte");
      }
      char flag = record.front();
      pending.append(record.data() + 1, record.size() - 1);
      if (flag == kRecordContinues) continue;
      if (flag != kRecordFinal) {
        return Status::Unavailable(
            "data page " + std::to_string(page_id) +
            " holds a record with an unknown continuation flag");
      }
      ByteReader reader(pending);
      AQV_ASSIGN_OR_RETURN(Row row, DecodeRow(&reader));
      if (!reader.empty()) {
        return Status::Unavailable("row record has trailing bytes on page " +
                                   std::to_string(page_id));
      }
      rows.push_back(std::move(row));
      pending.clear();
    }
  }
  if (!pending.empty()) {
    return Status::Unavailable("overflow row chain ends mid-row");
  }
  if (rows.size() != expected_rows) {
    return Status::Unavailable(
        "stored table holds " + std::to_string(rows.size()) +
        " rows where the directory promised " + std::to_string(expected_rows));
  }
  return rows;
}

uint32_t StorageEngine::AllocatePage() {
  if (!free_pool_.empty()) {
    uint32_t id = *free_pool_.begin();
    free_pool_.erase(free_pool_.begin());
    return id;
  }
  return next_page_++;
}

Status StorageEngine::CheckRowSize(const Row& row) {
  std::string encoded;
  EncodeRow(row, &encoded);
  if (encoded.size() > kMaxRowBytes) {
    return Status::InvalidArgument(
        "row of " + std::to_string(encoded.size()) +
        " encoded bytes exceeds the storage row limit of " +
        std::to_string(kMaxRowBytes) + " bytes");
  }
  return Status::OK();
}

Status StorageEngine::WriteRows(const Table& table,
                                std::vector<uint32_t>* pages) {
  Page page;
  bool filling = false;  // `page` holds records not yet written
  std::string encoded;
  std::string chunk;
  for (const ChunkPtr& stored : table.chunks()) {
    for (size_t r = 0; r < stored->num_rows(); ++r) {
      encoded.clear();
      EncodeRowAt(stored->columnar(), r, &encoded);
      if (encoded.size() > kMaxRowBytes) {
        return Status::InvalidArgument(
            "row of " + std::to_string(encoded.size()) +
            " encoded bytes exceeds the storage row limit of " +
            std::to_string(kMaxRowBytes) + " bytes");
      }
      // Rows wider than one page record chain across overflow records: each
      // record is a continuation flag byte plus up to kMaxChunkSize row
      // bytes, reassembled in stream order by ReadRows.
      size_t off = 0;
      bool more = true;
      while (more) {
        size_t len = std::min(kMaxChunkSize, encoded.size() - off);
        more = off + len < encoded.size();
        chunk.clear();
        chunk.push_back(more ? kRecordContinues : kRecordFinal);
        chunk.append(encoded, off, len);
        off += len;
        if (!filling || !page.InsertRecord(chunk).has_value()) {
          if (filling) AQV_RETURN_NOT_OK(WriteOut(disk_.get(), &page));
          page.Init(AllocatePage());
          filling = true;
          pages->push_back(page.page_id());
          if (!page.InsertRecord(chunk).has_value()) {
            return Status::Internal("fresh page rejected a record that fits");
          }
        }
      }
    }
  }
  return filling ? WriteOut(disk_.get(), &page) : Status::OK();
}

Status StorageEngine::Checkpoint(const Catalog& catalog,
                                 const ViewRegistry& views, const Database& db,
                                 const std::vector<PlanImage>& plans) {
  std::lock_guard<std::mutex> lock(mu_);
  TraceSpan span("storage.checkpoint");
  Clock::time_point checkpoint_start = Clock::now();
  if (wal_ == nullptr || wal_->failed() || GroupFailed()) {
    return Status::Unavailable(
        "storage is fail-stopped after a wal error; restart to recover");
  }

  // Shadow allocation setup: anything the live checkpoint does not
  // reference is fair game, including pages orphaned by earlier failed
  // attempts.
  next_page_ = std::max<uint32_t>(2, disk_->page_count());
  free_pool_.clear();
  for (uint32_t id = 2; id < next_page_; ++id) {
    if (live_pages_.count(id) == 0) free_pool_.insert(id);
  }

  // 1. Stream every stored table's rows into shadow pages.
  std::vector<TableEntry> entries;
  std::vector<std::string> names = db.TableNames();
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    AQV_ASSIGN_OR_RETURN(const Table* table, db.Get(name));
    TableEntry entry;
    entry.name = name;
    entry.columns = table->columns();
    entry.row_count = table->num_rows();
    AQV_RETURN_NOT_OK(WriteRows(*table, &entry.pages));
    entries.push_back(std::move(entry));
  }

  // 2. Build the directory blob.
  std::string blob;
  PutFixed32(&blob, kDirMagic);
  std::string catalog_image;
  catalog.SerializeTo(&catalog_image);
  PutLengthPrefixed(&blob, catalog_image);
  std::vector<std::string> view_names = views.ViewNames();
  PutVarint64(&blob, view_names.size());
  for (const std::string& name : view_names) {
    AQV_ASSIGN_OR_RETURN(const ViewDef* def, views.Get(name));
    PutLengthPrefixed(&blob, ToSql(*def));
  }
  PutFixed64(&blob, catalog.version());
  PutFixed64(&blob, views.version());
  PutVarint64(&blob, plans.size());
  for (const PlanImage& plan : plans) {
    PutLengthPrefixed(&blob, plan.key);
    PutLengthPrefixed(&blob, plan.plan_sql);
    blob.push_back(plan.used_materialized_view ? '\x01' : '\x00');
    PutVarint64(&blob, static_cast<uint64_t>(plan.rewritings_considered));
    PutDoubleBits(&blob, plan.cost_original);
    PutDoubleBits(&blob, plan.cost_chosen);
    PutVarint64(&blob, plan.dependencies.size());
    for (const std::string& dep : plan.dependencies) {
      PutLengthPrefixed(&blob, dep);
    }
  }
  PutVarint64(&blob, entries.size());
  for (const TableEntry& entry : entries) {
    PutLengthPrefixed(&blob, entry.name);
    PutVarint64(&blob, entry.columns.size());
    for (const std::string& c : entry.columns) PutLengthPrefixed(&blob, c);
    PutVarint64(&blob, entry.row_count);
    PutVarint64(&blob, entry.pages.size());
    for (uint32_t id : entry.pages) PutFixed32(&blob, id);
  }
  // The quarantine map rides in the directory so corruption evidence
  // survives its own cleanup: this very checkpoint rewrites the rotten
  // pages from the salvage (and recovery truncates a torn WAL tail),
  // either of which would otherwise let the damaged table silently serve
  // salvaged rows after one more restart. Only ClearQuarantinedTable — a
  // repair — removes an entry.
  PutVarint64(&blob, quarantine_.size());
  for (const auto& [name, reason] : quarantine_) {
    PutLengthPrefixed(&blob, name);
    PutLengthPrefixed(&blob, reason);
  }

  // 3. Chunk the blob across directory pages.
  MetaRecord meta;
  meta.generation = generation_ + 1;
  meta.commit_seq = last_seq_;
  meta.blob_size = blob.size();
  Page page;
  for (size_t off = 0; off < blob.size(); off += Page::kMaxRecordSize) {
    size_t len = std::min(Page::kMaxRecordSize, blob.size() - off);
    page.Init(AllocatePage());
    if (!page.InsertRecord(std::string_view(blob).substr(off, len))
             .has_value()) {
      return Status::Internal("directory chunk rejected by a fresh page");
    }
    AQV_RETURN_NOT_OK(WriteOut(disk_.get(), &page));
    meta.directory_pages.push_back(page.page_id());
  }
  // 4. Make every shadow page durable before the meta flip.
  std::string meta_record;
  EncodeMeta(meta, &meta_record);
  if (meta_record.size() > Page::kMaxRecordSize) {
    return Status::ResourceExhausted(
        "checkpoint directory spans too many pages for one meta record");
  }
  AQV_RETURN_NOT_OK(disk_->Sync());

  // 5. The commit point: stamp the OTHER meta page with generation+1 and
  // fsync. Before this instant the previous checkpoint is intact; after
  // it the new one is live.
  page.Init(static_cast<uint32_t>(meta.generation % 2));
  if (!page.InsertRecord(meta_record).has_value()) {
    return Status::Internal("meta record rejected by a fresh meta page");
  }
  AQV_RETURN_NOT_OK(WriteOut(disk_.get(), &page));
  AQV_RETURN_NOT_OK(disk_->Sync());

  generation_ = meta.generation;
  checkpoint_seq_ = meta.commit_seq;
  live_pages_.clear();
  live_pages_.insert(meta.directory_pages.begin(),
                     meta.directory_pages.end());
  directory_pages_ = meta.directory_pages;
  table_pages_.clear();
  for (const TableEntry& entry : entries) {
    live_pages_.insert(entry.pages.begin(), entry.pages.end());
    table_pages_[entry.name] = entry.pages;
  }
  if (checkpoints_ != nullptr) checkpoints_->Increment();
  // Completed checkpoints only: a failed attempt leaves no flipped meta,
  // so timing it would pollute the duration curve with partial work.
  if (checkpoint_latency_ != nullptr) {
    checkpoint_latency_->Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            Clock::now() - checkpoint_start)
            .count()));
  }
  if (span.active()) {
    span.AddAttr("generation", generation_);
    span.AddAttr("tables", static_cast<uint64_t>(entries.size()));
    span.AddAttr("pages", static_cast<uint64_t>(live_pages_.size()));
  }

  // 6. The WAL's history is folded into the checkpoint; drop it. A failure
  // here (including an injected wal.truncate) is survivable — replay skips
  // records at or below checkpoint_seq_ — but is still reported so the
  // chaos harness sees the injection.
  Status truncated = wal_->Truncate();
  if (truncated.ok()) {
    // Rewind the group-commit watermarks to the (now empty) log. Safe
    // against in-flight commits: checkpoint runs with the database
    // quiesced, so no LogCommit is racing these stores.
    std::lock_guard<std::mutex> group_lock(group_mu_);
    wal_synced_offset_ = 0;
    wal_appended_offset_.store(0, std::memory_order_release);
    if (wal_size_gauge_ != nullptr) wal_size_gauge_->Set(0);
  }
  return truncated;
}

void StorageEngine::ClearQuarantinedTable(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  quarantine_.erase(name);
}

Status StorageEngine::LogCommit(const Delta& delta, QueryStats* stats) {
  Clock::time_point commit_start = Clock::now();
  uint64_t my_end = 0;
  Status result = [&]() -> Status {
    std::unique_lock<std::mutex> lock(mu_);
    if (wal_ == nullptr) {
      return Status::Unavailable("storage engine has no wal attached");
    }
    // Group fail-stop check BEFORE the append: a failed leader fsync
    // poisons the group state but not the writer itself (its appended
    // bytes are intact), so without this a refused commit's record would
    // still land in the file, survive the close, and replay at recovery
    // as a row no client was ever acked for.
    {
      std::lock_guard<std::mutex> group_lock(group_mu_);
      if (group_failed_) {
        return Status::Unavailable(
            "wal writer failed earlier; restart and recover before "
            "committing");
      }
    }
    std::string payload;
    PutFixed64(&payload, last_seq_ + 1);
    EncodeDelta(delta, &payload);
    Status appended = wal_->Append(payload);
    if (stats != nullptr && appended.ok()) {
      stats->wal_bytes += wal_->last_record_bytes();
    }
    AQV_RETURN_NOT_OK(appended);
    ++last_seq_;
    my_end = wal_->size_bytes();
    // Publish how far the log extends only AFTER the write syscall
    // returned: a group leader's acquire-load then never claims bytes
    // that are not fully in the file.
    wal_appended_offset_.store(my_end, std::memory_order_release);
    wal_appended_records_.fetch_add(1, std::memory_order_relaxed);
    if (wal_size_gauge_ != nullptr) {
      wal_size_gauge_->Set(static_cast<int64_t>(my_end));
    }
    if (!options_.fsync_wal) return Status::OK();
    if (!options_.group_commit) {
      // PR 6 behavior (and the group-commit bench baseline): this commit
      // pays its own fsync, serialized under the engine mutex.
      return wal_->Sync();
    }
    lock.unlock();
    return SyncWalGroup(my_end);
  }();
  if (stats != nullptr) {
    // Charged even on failure: the statement paid for the attempt.
    stats->wal_commit_micros += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              commit_start)
            .count());
  }
  return result;
}

Status StorageEngine::SyncWalGroup(uint64_t my_end) {
  std::unique_lock<std::mutex> group_lock(group_mu_);
  for (;;) {
    if (wal_synced_offset_ >= my_end) return Status::OK();
    if (group_failed_) {
      return Status::Unavailable(
          "wal writer failed earlier; restart and recover before committing");
    }
    if (!group_sync_active_) break;
    // A leader is fsyncing (or about to): ride its barrier. Its result
    // either covers this record or the loop elects a new leader.
    group_cv_.wait(group_lock);
  }
  group_sync_active_ = true;
  group_lock.unlock();

  // Leader: the batch is whatever was appended while the previous fsync
  // was in flight.
  uint64_t sync_upto = wal_appended_offset_.load(std::memory_order_acquire);
  uint64_t records_upto =
      wal_appended_records_.load(std::memory_order_relaxed);
  Status synced = [&]() -> Status {
    // The chaos suite kills the leader here: its whole batch was appended
    // but never fsynced, so every rider's commit must fail un-acked (each
    // may still survive recovery — the oracle accepts either).
    AQV_FAILPOINT("wal.group_leader");
    LogWriter* wal = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      wal = wal_.get();
    }
    if (wal == nullptr) {
      return Status::Unavailable("storage engine has no wal attached");
    }
    // Outside the engine mutex: writers keep appending while this fsync
    // is in flight, and the next leader's fsync covers them all.
    return wal->Sync();
  }();

  group_lock.lock();
  group_sync_active_ = false;
  if (synced.ok()) {
    if (group_commit_batch_ != nullptr && records_upto > wal_synced_records_) {
      group_commit_batch_->Record(records_upto - wal_synced_records_);
    }
    wal_synced_offset_ = std::max(wal_synced_offset_, sync_upto);
    wal_synced_records_ = std::max(wal_synced_records_, records_upto);
  } else {
    // Mirror the writer's fail-stop: riders of this batch and every later
    // committer refuse cleanly until restart-and-recover.
    group_failed_ = true;
  }
  group_cv_.notify_all();
  if (!synced.ok()) return synced;
  if (wal_synced_offset_ >= my_end) return Status::OK();
  return Status::Internal("group commit fsync did not cover its own record");
}

Result<StorageEngine::ScrubReport> StorageEngine::Scrub() {
  std::lock_guard<std::mutex> lock(mu_);
  ScrubReport report;
  auto page_is_clean = [this](uint32_t id) {
    Page page;
    Status read = disk_->ReadPage(id, &page);
    return read.ok() && VerifyDataPage(page, id).ok();
  };
  for (const auto& [name, pages] : table_pages_) {
    TableScrub& table = report.tables[name];
    for (uint32_t id : pages) {
      ++table.pages;
      ++report.pages_checked;
      if (!page_is_clean(id)) {
        ++table.corrupt_pages;
        ++report.pages_corrupt;
      }
    }
  }
  for (uint32_t id : directory_pages_) {
    ++report.pages_checked;
    if (!page_is_clean(id)) {
      ++report.pages_corrupt;
      ++report.directory_pages_corrupt;
    }
  }
  AQV_ASSIGN_OR_RETURN(WalContents wal, ReadLog(options_.path + ".wal"));
  report.wal_records = wal.payloads.size();
  report.wal_mid_log_corruption = wal.mid_log_corruption;
  report.wal_suspect_records = wal.suspect_payloads.size();
  return report;
}

bool StorageEngine::GroupFailed() const {
  std::lock_guard<std::mutex> lock(group_mu_);
  return group_failed_;
}

bool StorageEngine::NeedsAutoCheckpoint() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (wal_ == nullptr || wal_->failed() || GroupFailed()) return false;
  if (options_.auto_checkpoint_wal_bytes > 0 &&
      wal_->size_bytes() >= options_.auto_checkpoint_wal_bytes) {
    return true;
  }
  return options_.auto_checkpoint_commits > 0 &&
         last_seq_ - checkpoint_seq_ >= options_.auto_checkpoint_commits;
}

bool StorageEngine::OverBackpressureCap() const {
  std::lock_guard<std::mutex> lock(mu_);
  return options_.backpressure_wal_bytes > 0 && wal_ != nullptr &&
         !wal_->failed() && !GroupFailed() &&
         wal_->size_bytes() >= options_.backpressure_wal_bytes;
}

uint64_t StorageEngine::last_commit_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_seq_;
}

uint64_t StorageEngine::checkpoint_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return checkpoint_seq_;
}

uint64_t StorageEngine::generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return generation_;
}

uint64_t StorageEngine::wal_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return wal_ == nullptr ? 0 : wal_->size_bytes();
}

bool StorageEngine::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return (wal_ != nullptr && wal_->failed()) || GroupFailed();
}

}  // namespace aqv
