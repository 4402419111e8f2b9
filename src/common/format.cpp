#include "common/format.hpp"

#include <charconv>
#include <clocale>
#include <cstdio>
#include <cstring>

namespace realtor {

int format_double(char* buf, std::size_t size, const char* fmt,
                  double value) {
  int written = std::snprintf(buf, size, fmt, value);
  if (written < 0 || size == 0) return written;
  const char* point = std::localeconv()->decimal_point;
  if (point[0] == '.' && point[1] == '\0') return written;  // C locale
  // A single double conversion contains at most one radix character;
  // rewrite it (possibly multi-byte) back to '.'.
  char* hit = std::strstr(buf, point);
  if (hit == nullptr) return written;
  const std::size_t point_len = std::strlen(point);
  *hit = '.';
  if (point_len > 1) {
    std::memmove(hit + 1, hit + point_len, std::strlen(hit + point_len) + 1);
    written -= static_cast<int>(point_len - 1);
  }
  return written;
}

std::string format_double(const char* fmt, double value) {
  char buf[64];
  const int written = format_double(buf, sizeof buf, fmt, value);
  if (written < 0) return std::string();
  if (static_cast<std::size_t>(written) < sizeof buf) {
    return std::string(buf, static_cast<std::size_t>(written));
  }
  std::string big(static_cast<std::size_t>(written) + 1, '\0');
  const int n = format_double(big.data(), big.size(), fmt, value);
  big.resize(n > 0 ? static_cast<std::size_t>(n) : 0);
  return big;
}

std::string format_double(double value, int precision) {
  char fmt[16];
  std::snprintf(fmt, sizeof fmt, "%%.%df", precision);
  return format_double(fmt, value);
}

void append_double_shortest(std::string& out, double value) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, value);
  out.append(buf, res.ptr);
}

void append_u64(std::string& out, std::uint64_t value) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, value);
  out.append(buf, res.ptr);
}

}  // namespace realtor
