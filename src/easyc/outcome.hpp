// Outcome<T>: either a computed model result or the list of reasons the
// model declined to produce one.
//
// Coverage — which systems *can* be assessed under a data scenario — is
// itself a headline result of the paper (Figs. 4-6), so "no estimate" is
// a first-class value with machine-readable reasons, not an exception.
//
// CellOutcome<T> is the compact form the engine memoizes: the result
// value plus a bitmask of failure-reason codes, trivially copyable and
// allocation-free. The reason text is rendered from the codes (and the
// system's inputs) only when a caller asks for it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace easyc::model {

template <typename T>
class Outcome {
 public:
  static Outcome success(T value) {
    Outcome o;
    o.value_ = std::move(value);
    return o;
  }

  static Outcome failure(std::vector<std::string> reasons) {
    EASYC_REQUIRE(!reasons.empty(), "failure Outcome needs a reason");
    Outcome o;
    o.reasons_ = std::move(reasons);
    return o;
  }

  static Outcome failure(std::string reason) {
    return failure(std::vector<std::string>{std::move(reason)});
  }

  bool ok() const { return value_.has_value(); }
  explicit operator bool() const { return ok(); }

  const T& value() const {
    EASYC_REQUIRE(value_.has_value(), "value() on failed Outcome");
    return *value_;
  }

  T& value() {
    EASYC_REQUIRE(value_.has_value(), "value() on failed Outcome");
    return *value_;
  }

  /// Why no estimate was possible (empty when ok()).
  const std::vector<std::string>& reasons() const { return reasons_; }

  std::string reasons_joined() const {
    std::string out;
    for (size_t i = 0; i < reasons_.size(); ++i) {
      if (i > 0) out += "; ";
      out += reasons_[i];
    }
    return out;
  }

 private:
  Outcome() = default;
  std::optional<T> value_;
  std::vector<std::string> reasons_;
};

/// Fixed-size Outcome: `result` is meaningful when `codes` is 0; a
/// failure carries one bit per reason (each model side defines its
/// codes, see model::reason) and a default-valued `result`.
template <typename T>
struct CellOutcome {
  T result{};
  uint8_t codes = 0;

  static CellOutcome success(const T& value) { return {value, 0}; }
  static CellOutcome failure(uint8_t reason_codes) {
    EASYC_REQUIRE(reason_codes != 0, "failure Outcome needs a reason");
    return {T{}, reason_codes};
  }

  bool ok() const { return codes == 0; }

  const T& value() const {
    EASYC_REQUIRE(ok(), "value() on failed Outcome");
    return result;
  }

  /// The full Outcome, given the rendered text of `codes`.
  Outcome<T> render(std::vector<std::string> reason_text) const {
    return ok() ? Outcome<T>::success(result)
                : Outcome<T>::failure(std::move(reason_text));
  }
};

}  // namespace easyc::model
