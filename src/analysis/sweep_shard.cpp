#include "analysis/sweep_shard.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <map>
#include <ostream>
#include <utility>

#include "analysis/sensitivity.hpp"
#include "util/error.hpp"
#include "util/fingerprint.hpp"
#include "util/serialize.hpp"
#include "util/strings.hpp"

namespace easyc::analysis {

namespace {

// Sections (header, tail) are length-prefixed and checksummed
// independently of the embedded EZCELLS stream, so a file cut off or
// bit-flipped anywhere fails decoding as truncation or a checksum
// mismatch — never as silently wrong numbers.
void write_section(std::ostream& out, const util::BinaryWriter& payload,
                   const char* what) {
  util::BinaryWriter head;
  head.u64(payload.size());
  head.u64(util::checksum64(payload.bytes()));
  out.write(head.bytes().data(), static_cast<std::streamsize>(head.size()));
  out.write(payload.bytes().data(),
            static_cast<std::streamsize>(payload.size()));
  if (!out) {
    throw util::Error(std::string(what) +
                      ": output stream failed (disk full or closed?)");
  }
}

std::string read_section(std::istream& in, const char* what) {
  const std::string head = util::read_stream_exact(in, 16, what);
  util::BinaryReader hr(head);
  const uint64_t size = hr.u64();
  const uint64_t sum = hr.u64();
  if (size > (1ULL << 32)) {
    throw util::CodecError(std::string("implausible ") + what + " size " +
                           std::to_string(size));
  }
  const std::string payload =
      util::read_stream_exact(in, static_cast<size_t>(size), what);
  if (util::checksum64(payload) != sum) {
    throw util::CodecError(std::string(what) + " checksum mismatch");
  }
  return payload;
}

void encode_series(util::BinaryWriter& w, const CarbonSeries& s) {
  w.u64(s.size());
  for (const auto& v : s) {
    w.boolean(v.has_value());
    if (v) w.f64(*v);
  }
}

CarbonSeries decode_series(util::BinaryReader& r, size_t expected,
                           const char* what) {
  const uint64_t n = r.u64();
  if (n != expected) {
    throw util::CodecError(std::string(what) + " series holds " +
                           std::to_string(n) + " entries for " +
                           std::to_string(expected) + " records");
  }
  CarbonSeries out;
  out.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    if (r.boolean()) {
      out.push_back(r.f64());
    } else {
      out.push_back(std::nullopt);
    }
  }
  return out;
}

// Everything merge_sweep_partials needs from one partial's header,
// decoded and checksum-verified but not yet cross-checked.
struct PartialHeader {
  uint64_t spec_fp = 0;
  uint64_t records_fp = 0;
  size_t num_records = 0;
  ShardRef ref;
  size_t cell_begin = 0;
  size_t cell_end = 0;
  size_t total_cells = 0;
  bool streaming = false;
  std::string base_name;
  size_t batches = 0;
};

// Read magic + version + the header section from an already-open
// stream, leaving it positioned at the embedded EZCELLS stream.
PartialHeader read_partial_header(std::istream& in, const std::string& path) {
  auto fail = [&](const std::string& why) {
    throw util::CodecError("partial '" + path + "': " + why);
  };
  if (util::read_stream_exact(in, kPartMagic.size(), "partial magic") !=
      kPartMagic) {
    fail("not an EZPART partial (bad magic)");
  }
  {
    const std::string bytes =
        util::read_stream_exact(in, 4, "partial format version");
    const uint32_t version = util::BinaryReader(bytes).u32();
    if (version != kPartFormatVersion) {
      fail("partial format version " + std::to_string(version) +
           ", expected " + std::to_string(kPartFormatVersion));
    }
  }
  const std::string payload = read_section(in, "partial header");
  util::BinaryReader r(payload);
  PartialHeader h;
  h.spec_fp = r.u64();
  h.records_fp = r.u64();
  h.num_records = static_cast<size_t>(r.u64());
  h.ref.index = r.u32();
  h.ref.count = r.u32();
  h.cell_begin = static_cast<size_t>(r.u64());
  h.cell_end = static_cast<size_t>(r.u64());
  h.total_cells = static_cast<size_t>(r.u64());
  h.streaming = r.boolean();
  h.base_name = r.str();
  h.batches = static_cast<size_t>(r.u64());
  if (!r.exhausted()) fail("trailing bytes in partial header");
  if (h.ref.count == 0 || h.ref.index == 0 || h.ref.index > h.ref.count) {
    fail("shard reference " + std::to_string(h.ref.index) + "/" +
         std::to_string(h.ref.count) + " is out of range");
  }
  return h;
}

// Replays one shard's embedded cell stream: validates the global cell
// indices are exactly the shard's contiguous range, captures the base
// cell, accumulates the grid marginals, and fans out to the caller's
// sink — the feed order across shards is the expansion order, so
// every accumulation is bit-identical to a single process's.
class ReplaySink : public SweepCellSink {
 public:
  struct MarginalAcc {
    size_t axis_pos = 0;                 // index into spec.axes
    std::vector<double> sorted;          // axis values, ascending
    std::vector<size_t> decl_to_sorted;  // declaration idx -> sorted idx
    std::vector<double> sums;
    std::vector<size_t> counts;
  };

  ReplaySink(const SweepExpansion& expansion, SweepReport& report,
             std::vector<MarginalAcc>& marginals, const MergeOptions& options)
      : expansion_(expansion),
        report_(report),
        marginals_(marginals),
        options_(options) {}

  void begin_shard(const std::string& path, size_t begin, size_t end) {
    path_ = path;
    next_ = begin;
    end_ = end;
  }

  void cell(size_t round, size_t index, const SweepCell& c) override {
    if (round != 0) {
      throw util::CodecError("partial '" + path_ + "': cell round " +
                             std::to_string(round) +
                             " (shard workers never refine)");
    }
    if (index != next_ || index >= end_) {
      throw util::CodecError(
          "partial '" + path_ + "': cell index " + std::to_string(index) +
          " where " + std::to_string(next_) + " was expected");
    }
    ++next_;
    if (index == 0) report_.base = c;
    if (c.kind == SweepCellKind::kGrid) {
      const size_t g = index - expansion_.grid_begin();
      for (auto& acc : marginals_) {
        const size_t si =
            acc.decl_to_sorted[expansion_.grid_value_index(g, acc.axis_pos)];
        acc.sums[si] += c.annualized_mt;
        ++acc.counts[si];
      }
    }
    if (options_.sink != nullptr) options_.sink->cell(round, index, c);
    if (options_.retain_cells) report_.cells.push_back(c);
  }

 private:
  const SweepExpansion& expansion_;
  SweepReport& report_;
  std::vector<MarginalAcc>& marginals_;
  const MergeOptions& options_;
  std::string path_;
  size_t next_ = 0;
  size_t end_ = 0;
};

}  // namespace

ShardRef ShardRef::parse(std::string_view text) {
  auto fail = [&] {
    throw util::ParseError("shard reference '" + std::string(text) +
                           "' is not i/N with 1 <= i <= N");
  };
  const auto slash = text.find('/');
  if (slash == std::string_view::npos) fail();
  const auto index = util::parse_int(util::trim(text.substr(0, slash)));
  const auto count = util::parse_int(util::trim(text.substr(slash + 1)));
  if (!index || !count) fail();
  if (*index < 1 || *count < 1 || *index > *count) fail();
  ShardRef ref;
  ref.index = static_cast<uint32_t>(*index);
  ref.count = static_cast<uint32_t>(*count);
  return ref;
}

std::string ShardRef::to_string() const {
  return std::to_string(index) + "/" + std::to_string(count);
}

size_t ShardRef::begin(size_t total) const {
  const size_t base = total / count;
  const size_t rem = total % count;
  const size_t zero = index - 1;
  return zero * base + std::min<size_t>(zero, rem);
}

size_t ShardRef::end(size_t total) const {
  const size_t base = total / count;
  const size_t rem = total % count;
  const size_t zero = index - 1;
  return begin(total) + base + (zero < rem ? 1 : 0);
}

uint64_t sweep_spec_fingerprint(const SweepSpec& spec) {
  util::Fingerprint fp;
  fp.mix_u64(spec.base.fingerprint());
  // The assessment fingerprint deliberately excludes presentation and
  // amortization; both reach a partial's rendered output, so the shard
  // identity must include them.
  fp.mix(std::string_view(spec.base.name));
  fp.mix(spec.base.service_years);
  fp.mix_u64(spec.axes.size());
  for (const auto& a : spec.axes) {
    fp.mix(static_cast<int>(a.axis));
    fp.mix_u64(a.values.size());
    for (const double v : a.values) fp.mix(v);
  }
  fp.mix(spec.monte_carlo.has_value());
  if (spec.monte_carlo) {
    fp.mix_u64(spec.monte_carlo->draws);
    fp.mix_u64(spec.monte_carlo->seed);
    fp.mix(spec.monte_carlo->ranges.utilization_rel);
    fp.mix(spec.monte_carlo->ranges.fab_aci_rel);
    fp.mix(spec.monte_carlo->ranges.node_platform_rel);
    fp.mix(spec.monte_carlo->ranges.ssd_default_rel);
    fp.mix(spec.monte_carlo->ranges.aci_rel);
  }
  return fp.value();
}

uint64_t records_fingerprint(
    const std::vector<top500::SystemRecord>& records) {
  util::Fingerprint fp;
  fp.mix_u64(records.size());
  for (const auto& r : records) fp.mix_u64(r.content_fingerprint());
  return fp.value();
}

size_t run_sweep_shard(SweepEngine& engine,
                       const std::vector<top500::SystemRecord>& records,
                       const SweepSpec& spec, ShardRef ref, std::ostream& out,
                       SweepCellSink* extra) {
  EASYC_REQUIRE(ref.count >= 1 && ref.index >= 1 && ref.index <= ref.count,
                "shard reference out of range");
  const SweepExpansion expansion(spec);
  const size_t total = expansion.size();
  const size_t begin = ref.begin(total);
  const size_t end = ref.end(total);

  const SweepEngine::Options& opts = engine.options();
  const size_t batch_size = std::max<size_t>(1, opts.batch_size);
  // The streaming decision looks at the FULL expansion, not this
  // shard's slice: every worker (and the eventual merge) must agree
  // with the mode a single process would pick.
  const bool streaming =
      opts.stats == SweepStatsMode::kStreaming ||
      (opts.stats == SweepStatsMode::kAuto &&
       total >= kStreamingStatsThreshold);

  {
    util::BinaryWriter magic;
    magic.raw(kPartMagic);
    magic.u32(kPartFormatVersion);
    out.write(magic.bytes().data(),
              static_cast<std::streamsize>(magic.size()));
  }
  {
    util::BinaryWriter h;
    h.u64(sweep_spec_fingerprint(spec));
    h.u64(records_fingerprint(records));
    h.u64(records.size());
    h.u32(ref.index);
    h.u32(ref.count);
    h.u64(begin);
    h.u64(end);
    h.u64(total);
    h.boolean(streaming);
    h.str(spec.base.name);
    h.u64(begin == end ? 0 : (end - begin + batch_size - 1) / batch_size);
    write_section(out, h, "partial header");
  }

  // The shard's cells ship as an embedded EZCELLS stream (round 0,
  // global expansion indices): the merge replays them to rebuild the
  // base cell and marginals and to serve the merged --cells-out.
  std::map<size_t, ScenarioResults> retained;
  SweepReduction reduction(streaming);
  {
    BinaryCellSink cells(out);
    engine.assess_cells(
        records, expansion, begin, end, /*named=*/true,
        [&](size_t i, const SweepCell& cell, ScenarioResults* endpoint) {
          reduction.add(cell);
          cells.cell(0, i, cell);
          if (extra != nullptr) extra->cell(0, i, cell);
          if (endpoint != nullptr) retained.emplace(i, std::move(*endpoint));
        });
    cells.finish();
  }

  // Tail: the tornado endpoint series this shard owns (the merge
  // re-runs analysis::sensitivity over them) and the reduction state.
  util::BinaryWriter t;
  t.u64(retained.size());
  for (const auto& [i, r] : retained) {
    t.u64(i);
    t.str(r.spec.name);
    encode_series(t, r.operational);
    encode_series(t, r.embodied);
    t.u64(static_cast<uint64_t>(r.coverage.operational));
    t.u64(static_cast<uint64_t>(r.coverage.embodied));
    t.u64(static_cast<uint64_t>(r.coverage.total));
  }
  reduction.encode(t);
  write_section(out, t, "partial tail");
  out.flush();
  if (!out) {
    throw util::Error("partial: output stream failed (disk full or closed?)");
  }
  return end - begin;
}

SweepReport merge_sweep_partials(
    const std::vector<std::string>& paths,
    const std::vector<top500::SystemRecord>& records, const SweepSpec& spec,
    const MergeOptions& options) {
  if (paths.empty()) {
    throw util::CodecError("sweep merge: no partials given");
  }

  const SweepExpansion expansion(spec);
  const size_t total = expansion.size();
  const uint64_t spec_fp = sweep_spec_fingerprint(spec);
  const uint64_t records_fp = records_fingerprint(records);
  const std::vector<TornadoEndpoint> endpoints = tornado_endpoints(spec);
  const size_t endpoint_end = 1 + 2 * endpoints.size();

  // Pass 1: headers only. Every partial must name this spec, this
  // record list, and the same N = paths.size() shard layout; the set
  // must be exactly shards 1..N, each once.
  std::vector<PartialHeader> headers(paths.size());
  std::vector<size_t> order(paths.size(), paths.size());
  for (size_t p = 0; p < paths.size(); ++p) {
    std::ifstream in(paths[p], std::ios::binary);
    if (!in) {
      throw util::Error("cannot read sweep partial '" + paths[p] + "'");
    }
    PartialHeader h = read_partial_header(in, paths[p]);
    auto fail = [&](const std::string& why) {
      throw util::CodecError("partial '" + paths[p] + "': " + why);
    };
    if (h.spec_fp != spec_fp) {
      fail("spec fingerprint mismatch — produced by a different sweep");
    }
    if (h.records_fp != records_fp || h.num_records != records.size()) {
      fail("records fingerprint mismatch — assessed a different record list");
    }
    if (h.total_cells != total) {
      fail("expansion has " + std::to_string(h.total_cells) +
           " cells, expected " + std::to_string(total));
    }
    if (h.ref.count != paths.size()) {
      fail("shard count " + std::to_string(h.ref.count) + ", but " +
           std::to_string(paths.size()) + " partial(s) were given");
    }
    const ShardRef expect{h.ref.index, h.ref.count};
    if (h.cell_begin != expect.begin(total) ||
        h.cell_end != expect.end(total)) {
      fail("cell range [" + std::to_string(h.cell_begin) + ", " +
           std::to_string(h.cell_end) + ") is not shard " +
           expect.to_string() + "'s balanced partition");
    }
    if (h.streaming != headers[0].streaming && p != 0) {
      fail("stats mode mismatch across partials");
    }
    if (order[h.ref.index - 1] != paths.size()) {
      fail("duplicate shard " + h.ref.to_string());
    }
    order[h.ref.index - 1] = p;
    headers[p] = std::move(h);
  }

  const bool streaming = headers[0].streaming;

  SweepReport report;
  report.base_name = spec.base.name;
  report.num_records = records.size();
  report.grid_cells = spec.grid_cells();
  report.mc_cells = spec.monte_carlo ? spec.monte_carlo->draws : 0;
  report.axis_cells = total - 1 - report.grid_cells - report.mc_cells;
  report.total_cells = total;
  report.streaming_stats = streaming;
  if (options.retain_cells) report.cells.reserve(total);

  // Marginal accumulators, identical construction to the in-process
  // sweep loop; fed from the replay in expansion order, so the merged
  // marginals are bit-identical to a single process's.
  std::vector<ReplaySink::MarginalAcc> marginals;
  for (size_t a = 0; a < spec.axes.size(); ++a) {
    const auto& values = spec.axes[a].values;
    if (values.size() < 2) continue;
    ReplaySink::MarginalAcc acc;
    acc.axis_pos = a;
    acc.sorted = values;
    std::sort(acc.sorted.begin(), acc.sorted.end());
    acc.decl_to_sorted.resize(values.size());
    for (size_t j = 0; j < values.size(); ++j) {
      acc.decl_to_sorted[j] = static_cast<size_t>(
          std::lower_bound(acc.sorted.begin(), acc.sorted.end(), values[j]) -
          acc.sorted.begin());
    }
    acc.sums.assign(acc.sorted.size(), 0.0);
    acc.counts.assign(acc.sorted.size(), 0);
    marginals.push_back(std::move(acc));
  }

  // Pass 2: shards in shard order — the concatenated cell replay is
  // the expansion order, which is what makes every fold exact.
  ReplaySink replay(expansion, report, marginals, options);
  SweepReduction merged(streaming);
  std::map<size_t, ScenarioResults> endpoint_results;
  for (size_t s = 0; s < order.size(); ++s) {
    const PartialHeader& h = headers[order[s]];
    const std::string& path = paths[order[s]];
    auto fail = [&](const std::string& why) {
      throw util::CodecError("partial '" + path + "': " + why);
    };
    std::ifstream in(path, std::ios::binary);
    if (!in) throw util::Error("cannot read sweep partial '" + path + "'");
    read_partial_header(in, path);  // skip; validated in pass 1

    replay.begin_shard(path, h.cell_begin, h.cell_end);
    const size_t n = read_binary_cells(in, replay, /*expect_eof=*/false);
    if (n != h.cell_end - h.cell_begin) {
      fail("embedded cell stream holds " + std::to_string(n) +
           " cells for range [" + std::to_string(h.cell_begin) + ", " +
           std::to_string(h.cell_end) + ")");
    }

    const std::string tail = read_section(in, "partial tail");
    util::BinaryReader r(tail);
    const uint64_t n_endpoints = r.u64();
    if (n_endpoints > endpoint_end) {
      fail("implausible endpoint count " + std::to_string(n_endpoints));
    }
    for (uint64_t e = 0; e < n_endpoints; ++e) {
      const size_t idx = static_cast<size_t>(r.u64());
      if (idx < 1 || idx >= endpoint_end || idx < h.cell_begin ||
          idx >= h.cell_end) {
        fail("endpoint index " + std::to_string(idx) +
             " outside the shard's endpoint range");
      }
      ScenarioResults res;
      res.spec = expansion.cell(idx);
      const std::string name = r.str();
      if (name != res.spec.name) {
        fail("endpoint " + std::to_string(idx) + " is named '" + name +
             "', expected '" + res.spec.name + "'");
      }
      res.operational = decode_series(r, records.size(), "operational");
      res.embodied = decode_series(r, records.size(), "embodied");
      res.coverage.operational = static_cast<int>(r.u64());
      res.coverage.embodied = static_cast<int>(r.u64());
      res.coverage.total = static_cast<int>(r.u64());
      if (!endpoint_results.emplace(idx, std::move(res)).second) {
        fail("duplicate endpoint " + std::to_string(idx));
      }
    }

    SweepReduction part = SweepReduction::decode(r);
    if (part.streaming() != streaming) fail("stats mode mismatch");
    if (part.count() != n) {
      fail("reduction covers " + std::to_string(part.count()) +
           " cells, embedded stream holds " + std::to_string(n));
    }
    if (!r.exhausted()) fail("trailing bytes in partial tail");
    if (in.peek() != std::char_traits<char>::eof()) {
      fail("trailing bytes after partial tail");
    }
    merged.merge(part);
    report.batches += h.batches;
  }

  for (size_t k = 1; k < endpoint_end; ++k) {
    if (endpoint_results.find(k) == endpoint_results.end()) {
      throw util::CodecError("sweep merge: no partial carries endpoint " +
                             std::to_string(k) + " ('" +
                             expansion.cell(k).name + "')");
    }
  }

  // Tornado: the same sensitivity kernel over the same series a single
  // process retained — identical inputs, identical rows.
  for (size_t j = 0; j < endpoints.size(); ++j) {
    const TornadoEndpoint& e = endpoints[j];
    const ScenarioResults& low = endpoint_results.at(1 + 2 * j);
    const ScenarioResults& high = endpoint_results.at(2 + 2 * j);
    const SensitivityReport s = sensitivity(records, low, high);

    TornadoRow row;
    row.axis = e.axis;
    row.low = e.low;
    row.high = e.high;
    row.low_annualized_mt = low.annualized_total_mt();
    row.high_annualized_mt = high.annualized_total_mt();
    row.swing_mt = row.high_annualized_mt - row.low_annualized_mt;
    row.swing_pct = report.base.annualized_mt == 0.0
                        ? 0.0
                        : row.swing_mt / report.base.annualized_mt * 100.0;
    row.op_total_pct = s.op_total_pct;
    row.emb_total_pct = s.emb_total_pct;
    row.op_max_abs_pct = s.op_max_abs_pct;
    row.emb_max_abs_pct = s.emb_max_abs_pct;
    report.tornado.push_back(row);
  }

  report.annualized_mt = merged.annualized_mt();
  report.op_total_mt = merged.op_total_mt();
  report.emb_total_mt = merged.emb_total_mt();

  for (auto& acc : marginals) {
    AxisMarginal m;
    m.axis = spec.axes[acc.axis_pos].axis;
    m.values = std::move(acc.sorted);
    m.mean_annualized.assign(m.values.size(), 0.0);
    for (size_t i = 0; i < m.values.size(); ++i) {
      if (acc.counts[i] > 0) {
        m.mean_annualized[i] =
            acc.sums[i] / static_cast<double>(acc.counts[i]);
      }
    }
    report.grid_marginals.push_back(std::move(m));
  }

  return report;
}

}  // namespace easyc::analysis
