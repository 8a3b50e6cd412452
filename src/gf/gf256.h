// GF(2^8) arithmetic for the Reed-Solomon erasure code.
//
// The field is built over the primitive polynomial x^8+x^4+x^3+x^2+1
// (0x11d), the same one used by Rizzo's classic erasure codec ("Effective
// erasure codes for reliable computer communication protocols", CCR 1997).
// Multiplication and division go through log/exp tables computed once at
// static-initialisation time.  The bulk operations (addmul/scale/xor_into)
// are thin validating wrappers over the SIMD-dispatched kernel engine in
// gf/gf256_kernels.h — scalar product-row tables, 64-bit-wide XOR, or
// split-nibble pshufb/vtbl backends selected once per process.

#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace fecsched::gf {

/// Number of field elements.
inline constexpr int kFieldSize = 256;
/// Multiplicative group order (non-zero elements).
inline constexpr int kGroupOrder = 255;

namespace detail {
struct Tables {
  // exp_ is doubled so mul can skip the mod-255 reduction.
  std::array<std::uint8_t, 2 * kGroupOrder> exp;
  std::array<std::uint16_t, kFieldSize> log;  // log[0] is a sentinel (unused)
  // mul_row[c] = full product row {c*0, c*1, ..., c*255}.
  std::array<std::array<std::uint8_t, kFieldSize>, kFieldSize> mul_row;
};
const Tables& tables() noexcept;
}  // namespace detail

/// Field addition == subtraction == XOR.
[[nodiscard]] inline std::uint8_t add(std::uint8_t a, std::uint8_t b) noexcept {
  return a ^ b;
}

/// Field multiplication.
[[nodiscard]] inline std::uint8_t mul(std::uint8_t a, std::uint8_t b) noexcept {
  return detail::tables().mul_row[a][b];
}

/// The products {c*0, c*1, ..., c*255}: one table lookup per product when
/// many values are multiplied by the same `c`.
[[nodiscard]] inline const std::array<std::uint8_t, kFieldSize>& mul_row(
    std::uint8_t c) noexcept {
  return detail::tables().mul_row[c];
}

/// Field division a/b.  b must be non-zero (checked: throws std::domain_error).
[[nodiscard]] std::uint8_t div(std::uint8_t a, std::uint8_t b);

/// Multiplicative inverse.  a must be non-zero (throws std::domain_error).
[[nodiscard]] std::uint8_t inv(std::uint8_t a);

/// a^exponent (exponent >= 0; 0^0 == 1 by convention).
[[nodiscard]] std::uint8_t pow(std::uint8_t a, unsigned exponent) noexcept;

/// The primitive element alpha = 2 raised to power e (e taken mod 255).
[[nodiscard]] inline std::uint8_t alpha_pow(unsigned e) noexcept {
  return detail::tables().exp[e % kGroupOrder];
}

/// dst ^= coeff * src, element-wise over equal-length spans.
/// This is the single hot loop of RS encode/decode.  Validates the span
/// sizes (throws std::invalid_argument on mismatch), then runs the
/// SIMD-dispatched kernel engine (gf/gf256_kernels.h); hot paths that have
/// already validated their buffers at workspace setup call the unchecked
/// kernels directly.
void addmul(std::span<std::uint8_t> dst, std::span<const std::uint8_t> src,
            std::uint8_t coeff);

/// dst = coeff * dst element-wise.
void scale(std::span<std::uint8_t> dst, std::uint8_t coeff);

/// dst ^= src element-wise (the coeff == 1 addmul, exposed because the
/// XOR-only LDGM/peeling paths use it pervasively).  Throws
/// std::invalid_argument on span size mismatch.
void xor_into(std::span<std::uint8_t> dst, std::span<const std::uint8_t> src);

}  // namespace fecsched::gf
