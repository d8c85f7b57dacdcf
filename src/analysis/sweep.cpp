#include "analysis/sweep.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <istream>
#include <ostream>
#include <set>
#include <utility>

#include "analysis/sensitivity.hpp"
#include "util/ascii.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"
#include "util/strings.hpp"

namespace easyc::analysis {

namespace {

// Cell names embed axis values; six significant decimals round-trips
// every value the grammar can express while keeping names stable (two
// values that collide at this precision are rejected as duplicates by
// ScenarioSet registration, never silently merged).
std::string format_axis_value(double v) { return util::format_double(v, 6); }

std::string endpoint_name(SweepAxis axis, double value) {
  return "sweep/axis/" + std::string(axis_name(axis)) + "=" +
         format_axis_value(value);
}

constexpr std::string_view kBaseCellName = "sweep/base";

// Physical-range guard for axis values, applied at parse time so a
// meaningless spec fails with a grammar-level message naming the axis
// and value instead of surfacing later from ScenarioSet validation
// (which stays in place as the backstop for hand-built SweepSpecs).
const char* axis_range_complaint(SweepAxis axis, double v) {
  switch (axis) {
    case SweepAxis::kAci:
      if (!(v >= 0.0)) return "grid intensity (gCO2e/kWh) must be >= 0";
      break;
    case SweepAxis::kPue:
      if (!(v >= 1.0)) return "PUE must be >= 1 (facility draws at least IT power)";
      break;
    case SweepAxis::kFab:
      if (!(v >= 0.0)) return "fab intensity (kgCO2e/kWh) must be >= 0";
      break;
    case SweepAxis::kUtilization:
      if (!(v > 0.0 && v <= 1.0)) return "utilization must be in (0,1]";
      break;
    case SweepAxis::kLifetime:
      if (!(v > 0.0)) return "lifetime (years) must be > 0";
      break;
  }
  return nullptr;
}

}  // namespace

std::vector<TornadoEndpoint> tornado_endpoints(const SweepSpec& spec) {
  std::vector<TornadoEndpoint> out;
  for (const auto& a : spec.axes) {
    if (a.values.size() < 2) continue;
    const auto [lo, hi] =
        std::minmax_element(a.values.begin(), a.values.end());
    out.push_back({a.axis, *lo, *hi, endpoint_name(a.axis, *lo),
                   endpoint_name(a.axis, *hi)});
  }
  return out;
}

std::string_view axis_name(SweepAxis axis) {
  switch (axis) {
    case SweepAxis::kAci: return "aci";
    case SweepAxis::kPue: return "pue";
    case SweepAxis::kFab: return "fab";
    case SweepAxis::kUtilization: return "util";
    case SweepAxis::kLifetime: return "life";
  }
  return "?";
}

std::optional<SweepAxis> axis_from_name(std::string_view name) {
  if (name == "aci") return SweepAxis::kAci;
  if (name == "pue") return SweepAxis::kPue;
  if (name == "fab") return SweepAxis::kFab;
  if (name == "util" || name == "utilization") return SweepAxis::kUtilization;
  if (name == "life" || name == "lifetime") return SweepAxis::kLifetime;
  return std::nullopt;
}

ScenarioSpec apply_axis(ScenarioSpec spec, SweepAxis axis, double value) {
  switch (axis) {
    case SweepAxis::kAci: spec.aci_override_g_kwh = value; break;
    case SweepAxis::kPue: spec.pue_override = value; break;
    case SweepAxis::kFab: spec.fab_aci_kg_kwh = value; break;
    case SweepAxis::kUtilization: spec.default_utilization = value; break;
    case SweepAxis::kLifetime: spec.service_years = value; break;
  }
  return spec;
}

std::optional<double> axis_value(const ScenarioSpec& spec, SweepAxis axis) {
  switch (axis) {
    case SweepAxis::kAci: return spec.aci_override_g_kwh;
    case SweepAxis::kPue: return spec.pue_override;
    case SweepAxis::kFab: return spec.fab_aci_kg_kwh;
    case SweepAxis::kUtilization: return spec.default_utilization;
    case SweepAxis::kLifetime: return spec.service_years;
  }
  return std::nullopt;
}

std::string_view cell_kind_name(SweepCellKind kind) {
  switch (kind) {
    case SweepCellKind::kBase: return "base";
    case SweepCellKind::kAxisEndpoint: return "axis";
    case SweepCellKind::kGrid: return "grid";
    case SweepCellKind::kMonteCarlo: return "mc";
  }
  return "?";
}

SweepCellKind cell_kind_from_name(std::string_view cell_name) {
  if (cell_name == kBaseCellName) return SweepCellKind::kBase;
  if (util::starts_with(cell_name, "sweep/axis/")) {
    return SweepCellKind::kAxisEndpoint;
  }
  if (util::starts_with(cell_name, "sweep/grid/")) return SweepCellKind::kGrid;
  if (util::starts_with(cell_name, "sweep/mc/")) {
    return SweepCellKind::kMonteCarlo;
  }
  throw util::Error("'" + std::string(cell_name) +
                    "' is not a sweep cell name");
}

SweepSpec SweepSpec::parse(std::string_view text, ScenarioSpec base) {
  SweepSpec spec;
  spec.base = std::move(base);

  auto fail = [&](const std::string& why) {
    throw util::ParseError("sweep spec: " + why);
  };

  for (const auto& raw_part : util::split(text, ';')) {
    const std::string part(util::trim(raw_part));
    if (part.empty()) fail("empty part (stray ';'?)");
    const auto eq = part.find('=');
    if (eq == std::string::npos) {
      fail("'" + part + "' is not of the form axis=values");
    }
    const std::string key(util::trim(part.substr(0, eq)));
    const std::string value(util::trim(part.substr(eq + 1)));
    if (value.empty()) fail("axis '" + key + "' has no values");

    if (key == "mc") {
      if (spec.monte_carlo) fail("mc given twice");
      const auto at = value.find('@');
      if (at == std::string::npos) {
        fail("mc wants draws@seed, got '" + value + "'");
      }
      const auto draws = util::parse_int(util::trim(value.substr(0, at)));
      const auto seed = util::parse_int(util::trim(value.substr(at + 1)));
      if (!draws || *draws <= 0) fail("mc draw count must be positive");
      if (!seed || *seed < 0) fail("mc seed must be a non-negative integer");
      MonteCarloSpec mc;
      mc.draws = static_cast<size_t>(*draws);
      mc.seed = static_cast<uint64_t>(*seed);
      spec.monte_carlo = mc;
      continue;
    }

    const auto axis = axis_from_name(key);
    if (!axis) {
      fail("unknown axis '" + key +
           "' (axes: aci, pue, fab, util, life; plus mc=draws@seed)");
    }
    for (const auto& existing : spec.axes) {
      if (existing.axis == *axis) fail("axis '" + key + "' given twice");
    }

    AxisValues av;
    av.axis = *axis;
    const auto colon_fields = util::split(value, ':');
    if (colon_fields.size() == 3) {
      // lo:hi:n linspace.
      const auto lo = util::parse_double(colon_fields[0]);
      const auto hi = util::parse_double(colon_fields[1]);
      const auto n = util::parse_int(colon_fields[2]);
      if (!lo || !hi || !n) {
        fail("axis '" + key + "': malformed range '" + value + "'");
      }
      if (*n < 2) fail("axis '" + key + "': linspace needs n >= 2");
      if (*lo == *hi) fail("axis '" + key + "': degenerate range lo == hi");
      for (long long i = 0; i < *n; ++i) {
        av.values.push_back(*lo + (*hi - *lo) * static_cast<double>(i) /
                                      static_cast<double>(*n - 1));
      }
    } else if (colon_fields.size() == 1) {
      for (const auto& field : util::split(value, ',')) {
        const auto v = util::parse_double(field);
        if (!v) {
          fail("axis '" + key + "': '" + std::string(util::trim(field)) +
               "' is not a number");
        }
        av.values.push_back(*v);
      }
    } else {
      fail("axis '" + key + "': values are v1,v2,... or lo:hi:n");
    }
    // Range-check the materialized values, so a meaningless list entry
    // and a linspace that strays out of range (e.g. "life=0:8:5", which
    // starts at a zero-year lifetime) fail identically.
    for (const double v : av.values) {
      if (const char* complaint = axis_range_complaint(*axis, v)) {
        fail("axis '" + key + "': value " + format_axis_value(v) + " — " +
             complaint);
      }
    }
    for (size_t i = 0; i < av.values.size(); ++i) {
      for (size_t j = i + 1; j < av.values.size(); ++j) {
        if (format_axis_value(av.values[i]) ==
            format_axis_value(av.values[j])) {
          fail("axis '" + key + "': duplicate value " +
               format_axis_value(av.values[i]));
        }
      }
    }
    spec.axes.push_back(std::move(av));
  }

  if (spec.axes.empty() && !spec.monte_carlo) {
    fail("no axes and no mc draws — nothing to sweep");
  }
  return spec;
}

size_t SweepSpec::grid_cells() const {
  if (axes.empty()) return 0;
  size_t n = 1;
  for (const auto& a : axes) n *= a.values.size();
  return n;
}

size_t SweepSpec::total_cells() const {
  return 1 + 2 * tornado_endpoints(*this).size() + grid_cells() +
         (monte_carlo ? monte_carlo->draws : 0);
}

SweepExpansion::SweepExpansion(SweepSpec spec) : spec_(std::move(spec)) {
  base_label_ = spec_.base.name;
  unnamed_base_ = spec_.base;
  unnamed_base_.name.clear();
  unnamed_base_.description.clear();

  // Fail before the first engine call: physical-range and
  // naming-precision violations used to surface from ScenarioSet
  // registration during materialization; the lazy expansion checks the
  // axis lists (the only unbounded input) upfront instead. Per-cell
  // spec validation still runs as each cell joins an engine block.
  for (const auto& a : spec_.axes) {
    for (const double v : a.values) {
      if (const char* complaint = axis_range_complaint(a.axis, v)) {
        throw util::Error("sweep axis '" + std::string(axis_name(a.axis)) +
                          "': value " + format_axis_value(v) + " — " +
                          complaint);
      }
    }
    for (size_t i = 0; i < a.values.size(); ++i) {
      for (size_t j = i + 1; j < a.values.size(); ++j) {
        if (format_axis_value(a.values[i]) ==
            format_axis_value(a.values[j])) {
          throw util::Error("sweep axis '" + std::string(axis_name(a.axis)) +
                            "': duplicate value " +
                            format_axis_value(a.values[i]) +
                            " at cell-naming precision");
        }
      }
    }
  }

  for (const auto& e : tornado_endpoints(spec_)) {
    endpoints_.push_back({e.axis, e.low, e.low_name});
    endpoints_.push_back({e.axis, e.high, e.high_name});
  }

  grid_ = spec_.grid_cells();
  strides_.assign(spec_.axes.size(), 1);
  for (size_t a = spec_.axes.size(); a-- > 1;) {
    strides_[a - 1] = strides_[a] * spec_.axes[a].values.size();
  }
  total_ = 1 + endpoints_.size() + grid_ +
           (spec_.monte_carlo ? spec_.monte_carlo->draws : 0);
}

SweepExpansion::Position SweepExpansion::locate(size_t index) const {
  EASYC_REQUIRE(index < total_, "sweep cell index out of range");
  if (index == 0) return {SweepCellKind::kBase, 0};
  index -= 1;
  if (index < endpoints_.size()) return {SweepCellKind::kAxisEndpoint, index};
  index -= endpoints_.size();
  if (index < grid_) return {SweepCellKind::kGrid, index};
  return {SweepCellKind::kMonteCarlo, index - grid_};
}

SweepCellKind SweepExpansion::kind(size_t index) const {
  return locate(index).kind;
}

std::string SweepExpansion::draw_tag(size_t draw) {
  char tag[32];
  std::snprintf(tag, sizeof(tag), "%04zu", draw);
  return tag;
}

ScenarioSpec SweepExpansion::unnamed_cell(size_t index) const {
  const Position pos = locate(index);
  switch (pos.kind) {
    case SweepCellKind::kBase:
      return unnamed_base_;
    case SweepCellKind::kAxisEndpoint: {
      // One axis at its extreme, everything else at base.
      const Endpoint& e = endpoints_[pos.offset];
      return apply_axis(unnamed_base_, e.axis, e.value);
    }
    case SweepCellKind::kGrid: {
      // The cartesian grid, odometer order (last declared axis fastest).
      ScenarioSpec s = unnamed_base_;
      for (size_t a = 0; a < spec_.axes.size(); ++a) {
        s = apply_axis(std::move(s), spec_.axes[a].axis,
                       spec_.axes[a].values[grid_value_index(pos.offset, a)]);
      }
      return s;
    }
    case SweepCellKind::kMonteCarlo:
      break;
  }
  // Seeded Monte-Carlo draw from the uncertainty module's prior model.
  // Each draw forks its own RNG stream, so draw k is the same scenario
  // regardless of which other cells are ever derived.
  const auto& mc = *spec_.monte_carlo;
  util::Rng rng = util::Rng(mc.seed).fork(pos.offset);
  double aci_scale = 1.0;
  const model::EasyCOptions drawn = model::perturb_options(
      unnamed_base_.to_options(), mc.ranges, rng, &aci_scale);
  ScenarioSpec s = unnamed_base_;
  s.default_utilization = drawn.operational.default_utilization;
  s.fab_aci_kg_kwh = drawn.embodied.fab_aci_kg_kwh;
  if (s.aci_override_g_kwh) {
    s.aci_override_g_kwh = *s.aci_override_g_kwh * aci_scale;
  }
  return s;
}

std::string SweepExpansion::cell_name(size_t index) const {
  const Position pos = locate(index);
  switch (pos.kind) {
    case SweepCellKind::kBase:
      return std::string(kBaseCellName);
    case SweepCellKind::kAxisEndpoint:
      return endpoints_[pos.offset].name;
    case SweepCellKind::kGrid: {
      std::string name = "sweep/grid/";
      for (size_t a = 0; a < spec_.axes.size(); ++a) {
        if (a != 0) name += '/';
        name += axis_name(spec_.axes[a].axis);
        name += '=';
        name += format_axis_value(
            spec_.axes[a].values[grid_value_index(pos.offset, a)]);
      }
      return name;
    }
    case SweepCellKind::kMonteCarlo:
      break;
  }
  return "sweep/mc/" + draw_tag(pos.offset);
}

std::string SweepExpansion::cell_description(size_t index) const {
  const Position pos = locate(index);
  switch (pos.kind) {
    case SweepCellKind::kBase:
      return "sweep base (" + base_label_ + ")";
    case SweepCellKind::kAxisEndpoint: {
      const Endpoint& e = endpoints_[pos.offset];
      return "sweep endpoint: " + std::string(axis_name(e.axis)) + "=" +
             format_axis_value(e.value) + " over " + base_label_;
    }
    case SweepCellKind::kGrid:
      return "sweep grid cell over " + base_label_;
    case SweepCellKind::kMonteCarlo:
      break;
  }
  return "prior draw " + draw_tag(pos.offset) + " (seed " +
         std::to_string(spec_.monte_carlo->seed) + ") over " + base_label_;
}

ScenarioSpec SweepExpansion::cell(size_t index) const {
  ScenarioSpec s = unnamed_cell(index);
  s.name = cell_name(index);
  s.description = cell_description(index);
  return s;
}

ScenarioSet expand_sweep(const SweepSpec& spec) {
  const SweepExpansion expansion(spec);
  ScenarioSet set;
  for (size_t i = 0; i < expansion.size(); ++i) set.add(expansion.cell(i));
  return set;
}

namespace {

// Aggregates are exported at full double precision via the pinned
// util::format_exact (%.17g) helper: the acceptance contract diffs
// exported files across thread counts and cache states byte for byte,
// and a lossless decimal form also lets downstream plotting recover
// the exact computed values.
using util::format_exact;

std::string format_fingerprint(uint64_t fp) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fp));
  return buf;
}

// Fail-fast contract of every cell sink: raise the moment the output
// stream reports failure, so a full disk at cell 10 of a million aborts
// the sweep instead of silently burning the remaining run.
void require_stream(const std::ostream& out, const char* what) {
  if (!out) {
    throw util::Error(std::string(what) +
                      ": output stream failed (disk full or closed?)");
  }
}

}  // namespace

std::string_view sweep_stats_mode_name(SweepStatsMode mode) {
  switch (mode) {
    case SweepStatsMode::kAuto: return "auto";
    case SweepStatsMode::kExact: return "exact";
    case SweepStatsMode::kStreaming: return "streaming";
  }
  return "?";
}

std::optional<SweepStatsMode> sweep_stats_mode_from_name(
    std::string_view name) {
  if (name == "auto") return SweepStatsMode::kAuto;
  if (name == "exact") return SweepStatsMode::kExact;
  if (name == "streaming") return SweepStatsMode::kStreaming;
  return std::nullopt;
}

SweepCell make_sweep_cell(const ScenarioResults& r) {
  SweepCell cell;
  cell.name = r.spec.name;
  cell.description = r.spec.description;
  cell.kind = cell_kind_from_name(r.spec.name);
  cell.fingerprint = r.spec.fingerprint();
  for (size_t a = 0; a < kNumSweepAxes; ++a) {
    cell.coords[a] = axis_value(r.spec, static_cast<SweepAxis>(a));
  }
  cell.op_total_mt = r.total(true);
  cell.emb_total_mt = r.total(false);
  cell.annualized_mt = r.annualized_total_mt();
  cell.op_covered = r.coverage.operational;
  cell.emb_covered = r.coverage.embodied;
  return cell;
}

SweepReduction::SweepReduction(bool streaming) : streaming_(streaming) {}

void SweepReduction::add(const SweepCell& cell) {
  ++count_;
  if (streaming_) {
    s_annualized_.add(cell.annualized_mt);
    s_op_.add(cell.op_total_mt);
    s_emb_.add(cell.emb_total_mt);
  } else {
    v_annualized_.push_back(cell.annualized_mt);
    v_op_.push_back(cell.op_total_mt);
    v_emb_.push_back(cell.emb_total_mt);
  }
}

void SweepReduction::merge(const SweepReduction& other) {
  if (streaming_ != other.streaming_) {
    throw util::Error(
        "SweepReduction::merge: cannot combine exact and streaming "
        "reductions");
  }
  count_ += other.count_;
  if (streaming_) {
    s_annualized_.merge(other.s_annualized_);
    s_op_.merge(other.s_op_);
    s_emb_.merge(other.s_emb_);
  } else {
    // Concatenation in shard order reproduces the single-process feed
    // order exactly, so the eventual summarize() is byte-identical.
    v_annualized_.insert(v_annualized_.end(), other.v_annualized_.begin(),
                         other.v_annualized_.end());
    v_op_.insert(v_op_.end(), other.v_op_.begin(), other.v_op_.end());
    v_emb_.insert(v_emb_.end(), other.v_emb_.begin(), other.v_emb_.end());
  }
}

void SweepReduction::encode(util::BinaryWriter& w) const {
  w.boolean(streaming_);
  w.u64(count_);
  if (streaming_) {
    s_annualized_.encode(w);
    s_op_.encode(w);
    s_emb_.encode(w);
  } else {
    for (const auto* v : {&v_annualized_, &v_op_, &v_emb_}) {
      w.u64(v->size());
      for (const double x : *v) w.f64(x);
    }
  }
}

SweepReduction SweepReduction::decode(util::BinaryReader& r) {
  SweepReduction out(r.boolean());
  out.count_ = static_cast<size_t>(r.u64());
  if (out.streaming_) {
    out.s_annualized_ = util::StreamingSummary::decode(r);
    out.s_op_ = util::StreamingSummary::decode(r);
    out.s_emb_ = util::StreamingSummary::decode(r);
  } else {
    for (auto* v : {&out.v_annualized_, &out.v_op_, &out.v_emb_}) {
      const uint64_t n = r.u64();
      if (n != out.count_) {
        throw util::CodecError(
            "sweep reduction series holds " + std::to_string(n) +
            " values for " + std::to_string(out.count_) + " cells");
      }
      v->reserve(static_cast<size_t>(n));
      for (uint64_t i = 0; i < n; ++i) v->push_back(r.f64());
    }
  }
  return out;
}

util::Summary SweepReduction::annualized_mt() const {
  return streaming_ ? s_annualized_.summary() : util::summarize(v_annualized_);
}

util::Summary SweepReduction::op_total_mt() const {
  return streaming_ ? s_op_.summary() : util::summarize(v_op_);
}

util::Summary SweepReduction::emb_total_mt() const {
  return streaming_ ? s_emb_.summary() : util::summarize(v_emb_);
}

CsvCellSink::CsvCellSink(std::ostream& out) : out_(out) {
  out_ << util::csv_format_row(columns());
  require_stream(out_, "cell CSV export");
}

const std::vector<std::string>& CsvCellSink::columns() {
  static const std::vector<std::string> kColumns = {
      "round",       "index",       "kind",
      "scenario",    "fingerprint", "aci_g_kwh",
      "pue",         "fab_kg_kwh",  "utilization",
      "service_years", "op_total_mt", "emb_total_mt",
      "annualized_mt", "op_covered",  "emb_covered",
      "description"};
  return kColumns;
}

void CsvCellSink::cell(size_t round, size_t index, const SweepCell& c) {
  std::vector<std::string> fields;
  fields.reserve(columns().size());
  fields.push_back(std::to_string(round));
  fields.push_back(std::to_string(index));
  fields.push_back(std::string(cell_kind_name(c.kind)));
  fields.push_back(c.name);
  fields.push_back(format_fingerprint(c.fingerprint));
  for (size_t a = 0; a < kNumSweepAxes; ++a) {
    const auto& v = c.coords[a];
    fields.push_back(v ? format_exact(*v) : "");
  }
  fields.push_back(format_exact(c.op_total_mt));
  fields.push_back(format_exact(c.emb_total_mt));
  fields.push_back(format_exact(c.annualized_mt));
  fields.push_back(std::to_string(c.op_covered));
  fields.push_back(std::to_string(c.emb_covered));
  fields.push_back(c.description);

  out_ << util::csv_format_row(fields);
  require_stream(out_, "cell CSV export");
}

TeeCellSink::TeeCellSink(std::vector<SweepCellSink*> sinks)
    : sinks_(std::move(sinks)) {
  for (const auto* s : sinks_) {
    EASYC_REQUIRE(s != nullptr, "TeeCellSink: null sink");
  }
}

void TeeCellSink::cell(size_t round, size_t index, const SweepCell& c) {
  for (auto* s : sinks_) s->cell(round, index, c);
}

BinaryCellSink::BinaryCellSink(std::ostream& out, size_t block_cells)
    : out_(out), block_cells_(std::max<size_t>(1, block_cells)) {
  util::BinaryWriter header;
  header.raw(kMagic);
  header.u32(kFormatVersion);
  const auto& cols = CsvCellSink::columns();
  header.u32(static_cast<uint32_t>(cols.size()));
  for (const auto& c : cols) header.str(c);
  out_.write(header.bytes().data(),
             static_cast<std::streamsize>(header.size()));
  require_stream(out_, "binary cell export (header)");
}

BinaryCellSink::~BinaryCellSink() {
  try {
    finish();
  } catch (...) {
    // Destructors must not throw; call finish() to observe flush errors.
  }
}

void BinaryCellSink::cell(size_t round, size_t index, const SweepCell& c) {
  EASYC_REQUIRE(!finished_, "BinaryCellSink: cell() after finish()");
  buffer_.push_back(Row{round, index, c});
  if (buffer_.size() >= block_cells_) flush_block();
}

void BinaryCellSink::flush_block() {
  if (buffer_.empty()) return;
  // Columnar payload: one contiguous run per column (README.md spec).
  util::BinaryWriter payload;
  for (const auto& r : buffer_) payload.u64(r.round);
  for (const auto& r : buffer_) payload.u64(r.index);
  for (const auto& r : buffer_) payload.u8(static_cast<uint8_t>(r.cell.kind));
  for (const auto& r : buffer_) payload.u64(r.cell.fingerprint);
  for (size_t a = 0; a < kNumSweepAxes; ++a) {
    for (const auto& r : buffer_) {
      payload.boolean(r.cell.coords[a].has_value());
    }
    for (const auto& r : buffer_) {
      if (r.cell.coords[a]) payload.f64(*r.cell.coords[a]);
    }
  }
  for (const auto& r : buffer_) payload.f64(r.cell.op_total_mt);
  for (const auto& r : buffer_) payload.f64(r.cell.emb_total_mt);
  for (const auto& r : buffer_) payload.f64(r.cell.annualized_mt);
  for (const auto& r : buffer_) {
    payload.u32(static_cast<uint32_t>(r.cell.op_covered));
  }
  for (const auto& r : buffer_) {
    payload.u32(static_cast<uint32_t>(r.cell.emb_covered));
  }
  for (const auto& r : buffer_) payload.str(r.cell.name);
  for (const auto& r : buffer_) payload.str(r.cell.description);

  util::BinaryWriter block;
  block.u8('B');
  block.u64(buffer_.size());
  block.u64(payload.size());
  block.u64(util::checksum64(payload.bytes()));
  out_.write(block.bytes().data(), static_cast<std::streamsize>(block.size()));
  out_.write(payload.bytes().data(),
             static_cast<std::streamsize>(payload.size()));
  require_stream(out_, "binary cell export (block)");
  total_ += buffer_.size();
  buffer_.clear();
}

void BinaryCellSink::finish() {
  if (finished_) return;
  flush_block();
  // Footer: 'E', the total cell count, and a checksum over that count —
  // a file cut off anywhere upstream fails decoding as truncated.
  util::BinaryWriter count;
  count.u64(total_);
  util::BinaryWriter footer;
  footer.u8('E');
  footer.raw(count.bytes());
  footer.u64(util::checksum64(count.bytes()));
  out_.write(footer.bytes().data(),
             static_cast<std::streamsize>(footer.size()));
  out_.flush();
  require_stream(out_, "binary cell export (footer)");
  finished_ = true;
}

size_t read_binary_cells(std::istream& in, SweepCellSink& sink,
                         bool expect_eof) {
  using util::read_stream_exact;
  if (read_stream_exact(in, BinaryCellSink::kMagic.size(), "magic") !=
      BinaryCellSink::kMagic) {
    throw util::CodecError("not an EZCELLS cell export (bad magic)");
  }
  {
    const std::string bytes = read_stream_exact(in, 4, "format version");
    const uint32_t version = util::BinaryReader(bytes).u32();
    if (version != BinaryCellSink::kFormatVersion) {
      throw util::CodecError(
          "cell export format version " + std::to_string(version) +
          ", expected " + std::to_string(BinaryCellSink::kFormatVersion));
    }
  }
  const auto& cols = CsvCellSink::columns();
  {
    const std::string bytes = read_stream_exact(in, 4, "column count");
    const uint32_t ncols = util::BinaryReader(bytes).u32();
    if (ncols != cols.size()) {
      throw util::CodecError("cell export has " + std::to_string(ncols) +
                             " columns, expected " +
                             std::to_string(cols.size()));
    }
  }
  for (const auto& expected : cols) {
    const std::string len_bytes = read_stream_exact(in, 8, "column name length");
    const uint64_t len = util::BinaryReader(len_bytes).u64();
    if (len > 4096) {
      throw util::CodecError("implausible column name length " +
                             std::to_string(len));
    }
    const std::string name =
        read_stream_exact(in, static_cast<size_t>(len), "column name");
    if (name != expected) {
      throw util::CodecError("cell export column '" + name +
                             "' where '" + expected + "' was expected");
    }
  }

  size_t cells = 0;
  for (;;) {
    const std::string tag = read_stream_exact(in, 1, "block tag");
    if (tag[0] == 'E') {
      const std::string body = read_stream_exact(in, 16, "footer");
      util::BinaryReader r(body);
      const uint64_t total = r.u64();
      const uint64_t sum = r.u64();
      if (sum != util::checksum64(std::string_view(body).substr(0, 8))) {
        throw util::CodecError("cell export footer checksum mismatch");
      }
      if (total != cells) {
        throw util::CodecError(
            "cell export footer claims " + std::to_string(total) +
            " cells, decoded " + std::to_string(cells));
      }
      if (expect_eof && in.peek() != std::char_traits<char>::eof()) {
        throw util::CodecError("trailing bytes after cell export footer");
      }
      return cells;
    }
    if (tag[0] != 'B') {
      throw util::CodecError("unknown cell export block tag " +
                             std::to_string(static_cast<int>(tag[0])));
    }
    const std::string head = read_stream_exact(in, 24, "block header");
    util::BinaryReader hr(head);
    const uint64_t n = hr.u64();
    const uint64_t payload_size = hr.u64();
    const uint64_t sum = hr.u64();
    if (n == 0) throw util::CodecError("empty cell export block");
    if (payload_size > (1ULL << 32)) {
      throw util::CodecError("implausible cell block size " +
                             std::to_string(payload_size));
    }
    // The round column alone is 8 bytes per cell, so a count the
    // payload cannot hold is corruption the checksum can't see (the
    // count lives in the block header) — reject before sizing any
    // decode buffers by it.
    if (n > payload_size / 8) {
      throw util::CodecError("cell block claims " + std::to_string(n) +
                             " cells in " + std::to_string(payload_size) +
                             " payload bytes");
    }
    const std::string payload =
        read_stream_exact(in, static_cast<size_t>(payload_size), "block payload");
    if (util::checksum64(payload) != sum) {
      throw util::CodecError("cell block checksum mismatch");
    }

    util::BinaryReader r(payload);
    const size_t count = static_cast<size_t>(n);
    std::vector<size_t> rounds(count), indices(count);
    std::vector<SweepCell> block(count);
    for (auto& v : rounds) v = static_cast<size_t>(r.u64());
    for (auto& v : indices) v = static_cast<size_t>(r.u64());
    for (auto& c : block) {
      const uint8_t k = r.u8();
      if (k > static_cast<uint8_t>(SweepCellKind::kMonteCarlo)) {
        throw util::CodecError("bad cell kind byte " + std::to_string(k));
      }
      c.kind = static_cast<SweepCellKind>(k);
    }
    for (auto& c : block) c.fingerprint = r.u64();
    for (size_t a = 0; a < kNumSweepAxes; ++a) {
      std::vector<bool> present(count);
      for (size_t i = 0; i < count; ++i) present[i] = r.boolean();
      for (size_t i = 0; i < count; ++i) {
        if (present[i]) block[i].coords[a] = r.f64();
      }
    }
    for (auto& c : block) c.op_total_mt = r.f64();
    for (auto& c : block) c.emb_total_mt = r.f64();
    for (auto& c : block) c.annualized_mt = r.f64();
    for (auto& c : block) c.op_covered = static_cast<int>(r.u32());
    for (auto& c : block) c.emb_covered = static_cast<int>(r.u32());
    for (auto& c : block) c.name = r.str();
    for (auto& c : block) c.description = r.str();
    if (!r.exhausted()) {
      throw util::CodecError("trailing bytes in cell export block");
    }
    for (size_t i = 0; i < count; ++i) {
      sink.cell(rounds[i], indices[i], block[i]);
    }
    cells += count;
  }
}

SweepEngine::SweepEngine() : SweepEngine(Options{}) {}

SweepEngine::SweepEngine(Options options) : options_(options) {
  if (options_.engine == nullptr) {
    AssessmentEngine::Options eopt;
    eopt.pool = options_.pool;
    owned_engine_ = std::make_unique<AssessmentEngine>(eopt);
    options_.engine = owned_engine_.get();
  }
}

AssessmentEngine& SweepEngine::engine() { return *options_.engine; }

SweepReport SweepEngine::run(
    const std::vector<top500::SystemRecord>& records, const SweepSpec& spec,
    SweepCellSink* sink) {
  return run_round(records, spec, /*round=*/0, sink);
}

size_t SweepEngine::assess_cells(
    const std::vector<top500::SystemRecord>& records,
    const SweepExpansion& expansion, size_t begin, size_t end, bool named,
    const CellVisitor& visit) {
  if (begin >= end) return 0;
  AssessmentEngine& engine = *options_.engine;
  const size_t batch_size = std::max<size_t>(1, options_.batch_size);
  const size_t num_records = records.size();
  // The records are the same in every block: fingerprint them once.
  const std::vector<uint64_t> record_fps = engine.record_fingerprints(records);
  const size_t block_cells = std::min(batch_size, end - begin);
  std::vector<ScenarioSpec> specs;
  specs.reserve(block_cells);
  std::vector<model::CellValue> grid(block_cells * num_records);
  SweepCell cell;
  size_t blocks = 0;
  for (size_t start = begin; start < end; start += batch_size) {
    const size_t stop = std::min(start + batch_size, end);
    specs.clear();
    for (size_t i = start; i < stop; ++i) {
      specs.push_back(expansion.unnamed_cell(i));
      if (const char* complaint = spec_value_complaint(specs.back())) {
        throw util::Error("scenario '" + expansion.cell_name(i) +
                          "': " + complaint);
      }
    }
    engine.assess_rows(records, record_fps, specs, grid.data());
    ++blocks;

    // Blocks are ordered engine calls, so visiting order is the
    // expansion order for every thread count / batch size.
    for (size_t k = 0; k < specs.size(); ++k) {
      const size_t index = start + k;
      const ScenarioSpec& spec = specs[k];
      const model::CellValue* row = grid.data() + k * num_records;
      cell.kind = expansion.kind(index);
      const bool endpoint = cell.kind == SweepCellKind::kAxisEndpoint;
      if (named || endpoint || cell.kind == SweepCellKind::kBase) {
        cell.name = expansion.cell_name(index);
        cell.description = expansion.cell_description(index);
      } else {
        cell.name.clear();
        cell.description.clear();
      }
      cell.fingerprint = spec.fingerprint();
      for (size_t a = 0; a < kNumSweepAxes; ++a) {
        cell.coords[a] = axis_value(spec, static_cast<SweepAxis>(a));
      }
      // Record order, covered cells only: the addition order of
      // ScenarioResults::total, so the sums are bit-identical.
      double op = 0.0;
      double emb = 0.0;
      int op_covered = 0;
      int emb_covered = 0;
      for (size_t i = 0; i < num_records; ++i) {
        if (row[i].operational.ok()) {
          op += row[i].operational.value().mt_co2e;
          ++op_covered;
        }
        if (row[i].embodied.ok()) {
          emb += row[i].embodied.value().total_mt;
          ++emb_covered;
        }
      }
      cell.op_total_mt = op;
      cell.emb_total_mt = emb;
      cell.annualized_mt = op + emb / spec.service_years;
      cell.op_covered = op_covered;
      cell.emb_covered = emb_covered;

      if (!endpoint) {
        visit(index, cell, nullptr);
        continue;
      }
      ScenarioResults results;
      results.spec = spec;
      results.spec.name = cell.name;
      results.spec.description = cell.description;
      results.assessments.assign(row, row + num_records);
      results.finalize();
      visit(index, cell, &results);
    }
  }
  return blocks;
}

SweepReport SweepEngine::run_round(
    const std::vector<top500::SystemRecord>& records, const SweepSpec& spec,
    size_t round, SweepCellSink* sink) {
  const SweepExpansion expansion(spec);

  SweepReport report;
  report.base_name = spec.base.name;
  report.num_records = records.size();
  report.grid_cells = spec.grid_cells();
  report.mc_cells = spec.monte_carlo ? spec.monte_carlo->draws : 0;
  report.axis_cells =
      expansion.size() - 1 - report.grid_cells - report.mc_cells;
  report.total_cells = expansion.size();
  const bool streaming =
      options_.stats == SweepStatsMode::kStreaming ||
      (options_.stats == SweepStatsMode::kAuto &&
       expansion.size() >= kStreamingStatsThreshold);
  report.streaming_stats = streaming;

  // The tornado reduction needs full per-record series for every
  // endpoint (expansion indices [1, 1 + 2 * endpoints), low then high);
  // everything else is reduced to aggregates as its block completes,
  // keeping peak memory at one block.
  const std::vector<TornadoEndpoint> endpoints = tornado_endpoints(spec);
  std::vector<ScenarioResults> retained(2 * endpoints.size());

  // Grid-marginal accumulators, one per multi-valued axis. Buckets are
  // fed in expansion order, so sums (and the resulting means) are
  // bit-identical to the historical recomputation over report.cells.
  struct MarginalAcc {
    size_t axis_pos = 0;                 // index into spec.axes
    std::vector<double> sorted;          // axis values, ascending
    std::vector<size_t> decl_to_sorted;  // declaration idx -> sorted idx
    std::vector<double> sums;
    std::vector<size_t> counts;
  };
  std::vector<MarginalAcc> marginals;
  for (size_t a = 0; a < spec.axes.size(); ++a) {
    const auto& values = spec.axes[a].values;
    if (values.size() < 2) continue;
    MarginalAcc acc;
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

  SweepReduction reduction(streaming);
  const par::CacheStats before = options_.engine->cache_stats();

  if (options_.retain_cells) report.cells.reserve(expansion.size());
  report.batches = assess_cells(
      records, expansion, 0, expansion.size(),
      /*named=*/sink != nullptr || options_.retain_cells,
      [&](size_t index, const SweepCell& cell, ScenarioResults* endpoint) {
        if (index == 0) report.base = cell;
        reduction.add(cell);
        if (cell.kind == SweepCellKind::kGrid) {
          const size_t g = index - expansion.grid_begin();
          for (auto& acc : marginals) {
            const size_t si = acc.decl_to_sorted[expansion.grid_value_index(
                g, acc.axis_pos)];
            acc.sums[si] += cell.annualized_mt;
            ++acc.counts[si];
          }
        }
        if (sink != nullptr) sink->cell(round, index, cell);
        if (endpoint != nullptr) retained[index - 1] = std::move(*endpoint);
        if (options_.retain_cells) report.cells.push_back(cell);
      });

  for (size_t j = 0; j < endpoints.size(); ++j) {
    const TornadoEndpoint& e = endpoints[j];
    const ScenarioResults& low = retained[2 * j];
    const ScenarioResults& high = retained[2 * j + 1];
    // The Fig.-9 kernel generalizes to any two scenarios over one list:
    // low plays Baseline, high plays Baseline+PublicInfo.
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

  report.annualized_mt = reduction.annualized_mt();
  report.op_total_mt = reduction.op_total_mt();
  report.emb_total_mt = reduction.emb_total_mt();

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

  report.cache = options_.engine->cache_stats().since(before);
  return report;
}

namespace {

// Pick and densify the top-K axes of `spec` (mutating it) from the last
// round's report. An axis's marginal response (SweepReport::
// grid_marginals, accumulated from the cell stream — so refinement
// works with cell retention off) is the mean annualized total over the
// grid cells pinned at each of its values; the steepest adjacent pair
// gets `points` new values strictly inside it, keeping every old value
// so the previous grid re-runs as pure cache lookups. Returns the
// per-axis trace; empty when nothing could be refined. Deterministic:
// ranking is stable-sorted (spec order breaks |swing| ties), segment
// ties resolve to the lower pair, and inputs are deterministic cell
// aggregates.
std::vector<RefinedAxis> refine_spec(SweepSpec& spec, const SweepReport& last,
                                     const RefineOptions& opt) {
  std::vector<const TornadoRow*> ranked;
  ranked.reserve(last.tornado.size());
  for (const auto& row : last.tornado) ranked.push_back(&row);
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const TornadoRow* a, const TornadoRow* b) {
                     return std::abs(a->swing_mt) > std::abs(b->swing_mt);
                   });

  std::vector<RefinedAxis> out;
  for (const TornadoRow* row : ranked) {
    if (out.size() >= opt.top_axes) break;
    const auto axis_it =
        std::find_if(spec.axes.begin(), spec.axes.end(),
                     [&](const AxisValues& a) { return a.axis == row->axis; });
    if (axis_it == spec.axes.end()) continue;

    const auto marg_it =
        std::find_if(last.grid_marginals.begin(), last.grid_marginals.end(),
                     [&](const AxisMarginal& m) { return m.axis == row->axis; });
    if (marg_it == last.grid_marginals.end()) continue;
    const std::vector<double>& sorted = marg_it->values;
    const std::vector<double>& marginal = marg_it->mean_annualized;
    if (sorted.size() < 2) continue;

    size_t seg = 0;
    double steepest = -1.0;
    for (size_t i = 0; i + 1 < sorted.size(); ++i) {
      const double delta = std::abs(marginal[i + 1] - marginal[i]);
      if (delta > steepest) {
        steepest = delta;
        seg = i;
      }
    }

    RefinedAxis refined;
    refined.axis = row->axis;
    refined.seg_lo = sorted[seg];
    refined.seg_hi = sorted[seg + 1];
    refined.swing_mt = row->swing_mt;

    // New values that collide with an existing one at naming precision
    // are skipped: the axis is already as dense as names can express.
    std::set<std::string> existing;
    for (const double v : sorted) existing.insert(format_axis_value(v));
    std::vector<double> merged = sorted;
    for (size_t j = 1; j <= opt.points; ++j) {
      const double v = refined.seg_lo +
                       (refined.seg_hi - refined.seg_lo) *
                           static_cast<double>(j) /
                           static_cast<double>(opt.points + 1);
      if (existing.insert(format_axis_value(v)).second) {
        merged.push_back(v);
        ++refined.added;
      }
    }
    if (refined.added == 0) continue;
    std::sort(merged.begin(), merged.end());
    axis_it->values = std::move(merged);
    out.push_back(refined);
  }
  return out;
}

}  // namespace

SweepReport SweepEngine::run_adaptive(
    const std::vector<top500::SystemRecord>& records, const SweepSpec& spec,
    const RefineOptions& refine, SweepCellSink* sink) {
  const par::CacheStats before = options_.engine->cache_stats();

  SweepSpec current = spec;
  SweepReport report = run_round(records, current, 0, sink);
  report.refinement.push_back(
      RefinementRound{0, report.total_cells, {}, report.cache});

  for (size_t round = 1; round <= refine.rounds; ++round) {
    std::vector<RefinedAxis> refined = refine_spec(current, report, refine);
    if (refined.empty()) break;  // nothing left to densify

    std::vector<RefinementRound> trace = std::move(report.refinement);
    report = run_round(records, current, round, sink);
    trace.push_back(RefinementRound{round, report.total_cells,
                                    std::move(refined), report.cache});
    report.refinement = std::move(trace);
  }

  report.cache = options_.engine->cache_stats().since(before);
  return report;
}

std::string render_sweep_report(const SweepReport& r) {
  using util::format_double;
  std::string out = "Parameter sweep — " + std::to_string(r.total_cells) +
                    " derived scenarios over " +
                    std::to_string(r.num_records) + " systems\n";
  out += "  base: " + r.base_name + " — annualized " +
         format_double(r.base.annualized_mt, 0) +
         " MT CO2e/yr (operational " + format_double(r.base.op_total_mt, 0) +
         " MT/yr, embodied " + format_double(r.base.emb_total_mt, 0) +
         " MT)\n";
  out += "  cells: 1 base + " + std::to_string(r.axis_cells) +
         " axis endpoints + " + std::to_string(r.grid_cells) + " grid + " +
         std::to_string(r.mc_cells) + " monte-carlo\n\n";

  out += "Tornado — one axis swept, all others at base:\n";
  if (r.tornado.empty()) {
    out += "  (no multi-valued axes)\n";
  } else {
    util::TextTable t({"Axis", "Low", "High", "Ann@low MT", "Ann@high MT",
                       "Swing MT", "Swing %", "Max |op| %", "Max |emb| %"});
    for (const auto& row : r.tornado) {
      t.add_row({std::string(axis_name(row.axis)),
                 format_axis_value(row.low), format_axis_value(row.high),
                 format_double(row.low_annualized_mt, 0),
                 format_double(row.high_annualized_mt, 0),
                 format_double(row.swing_mt, 0),
                 format_double(row.swing_pct, 1),
                 format_double(row.op_max_abs_pct, 1),
                 format_double(row.emb_max_abs_pct, 1)});
    }
    out += t.render();
  }

  // The refinement trace renders only its deterministic fields (each
  // round's cache stats stay off stdout, like the sweep-level stats).
  if (r.refinement.size() > 1) {
    out += "\nAdaptive refinement — " +
           std::to_string(r.refinement.size() - 1) +
           " round(s) after the coarse grid:\n";
    for (const auto& round : r.refinement) {
      if (round.round == 0) {
        out += "  round 0 (coarse): " + std::to_string(round.cells) +
               " cells\n";
        continue;
      }
      std::string axes;
      for (const auto& ax : round.refined) {
        if (!axes.empty()) axes += ", ";
        axes += std::string(axis_name(ax.axis)) + " in [" +
                format_axis_value(ax.seg_lo) + ", " +
                format_axis_value(ax.seg_hi) + "] +" +
                std::to_string(ax.added) + " values";
      }
      out += "  round " + std::to_string(round.round) + ": " + axes + " — " +
             std::to_string(round.cells) + " cells\n";
    }
  }

  auto dist_line = [](const util::Summary& s) {
    return "min " + format_double(s.min, 0) + " | p05 " +
           format_double(s.p05, 0) + " | median " +
           format_double(s.median, 0) + " | mean " +
           format_double(s.mean, 0) + " | p95 " + format_double(s.p95, 0) +
           " | max " + format_double(s.max, 0);
  };
  out += "\nFleet totals across all " + std::to_string(r.total_cells) +
         " cells:\n";
  out += "  annualized (MT CO2e/yr):  " + dist_line(r.annualized_mt) + "\n";
  out += "  operational (MT CO2e/yr): " + dist_line(r.op_total_mt) + "\n";
  out += "  embodied (MT CO2e):       " + dist_line(r.emb_total_mt) + "\n";
  return out;
}

}  // namespace easyc::analysis
