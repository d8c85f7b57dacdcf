#include "easyc/codec.hpp"

#include <string>

namespace easyc::model {

namespace {

void encode_operational(util::BinaryWriter& w, const OperationalResult& r) {
  w.f64(r.mt_co2e)
      .f64(r.annual_kwh)
      .f64(r.it_kw)
      .f64(r.pue)
      .f64(r.aci_g_kwh)
      .boolean(r.aci_region_refined)
      .u8(static_cast<uint8_t>(r.path))
      .f64(r.utilization);
}

OperationalResult decode_operational(util::BinaryReader& r) {
  OperationalResult out;
  out.mt_co2e = r.f64();
  out.annual_kwh = r.f64();
  out.it_kw = r.f64();
  out.pue = r.f64();
  out.aci_g_kwh = r.f64();
  out.aci_region_refined = r.boolean();
  const uint8_t path = r.u8();
  if (path > static_cast<uint8_t>(EnergyPath::kCoreCountEstimate)) {
    throw util::CodecError("energy path byte " + std::to_string(path) +
                           " is outside the EnergyPath enum");
  }
  out.path = static_cast<EnergyPath>(path);
  out.utilization = r.f64();
  return out;
}

void encode_embodied(util::BinaryWriter& w, const EmbodiedBreakdown& b) {
  w.f64(b.cpu_mt)
      .f64(b.gpu_mt)
      .f64(b.memory_mt)
      .f64(b.storage_mt)
      .f64(b.platform_mt)
      .f64(b.interconnect_mt)
      .f64(b.total_mt)
      .boolean(b.used_gpu_proxy)
      .boolean(b.used_memory_default)
      .boolean(b.used_storage_default);
}

EmbodiedBreakdown decode_embodied(util::BinaryReader& r) {
  EmbodiedBreakdown out;
  out.cpu_mt = r.f64();
  out.gpu_mt = r.f64();
  out.memory_mt = r.f64();
  out.storage_mt = r.f64();
  out.platform_mt = r.f64();
  out.interconnect_mt = r.f64();
  out.total_mt = r.f64();
  out.used_gpu_proxy = r.boolean();
  out.used_memory_default = r.boolean();
  out.used_storage_default = r.boolean();
  return out;
}

template <typename T, typename EncodeValue>
void encode_side(util::BinaryWriter& w, const CellOutcome<T>& side,
                 EncodeValue&& value) {
  w.boolean(side.ok()).u8(side.codes);
  if (side.ok()) value(w, side.result);
}

template <typename T, typename DecodeValue>
CellOutcome<T> decode_side(util::BinaryReader& r, uint8_t defined_codes,
                           const char* side_name, DecodeValue&& value) {
  const bool ok = r.boolean();
  const uint8_t codes = r.u8();
  if ((codes & ~defined_codes) != 0) {
    throw util::CodecError(std::string(side_name) + " reason codes " +
                           std::to_string(codes) +
                           " set bits the side does not define");
  }
  if (ok != (codes == 0)) {
    throw util::CodecError(std::string(side_name) + " ok flag " +
                           (ok ? "set" : "clear") +
                           " contradicts its reason codes");
  }
  if (!ok) return CellOutcome<T>::failure(codes);
  return CellOutcome<T>::success(value(r));
}

}  // namespace

void encode_cell(util::BinaryWriter& w, const CellValue& cell) {
  encode_side(w, cell.operational, encode_operational);
  encode_side(w, cell.embodied, encode_embodied);
}

CellValue decode_cell(util::BinaryReader& r) {
  CellValue out;
  out.operational = decode_side<OperationalResult>(
      r, reason::kOperationalCodes, "operational", decode_operational);
  out.embodied = decode_side<EmbodiedBreakdown>(
      r, reason::kEmbodiedCodes, "embodied", decode_embodied);
  return out;
}

}  // namespace easyc::model
