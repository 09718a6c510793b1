#include "util/time.hpp"

#include <array>
#include <cstdio>

namespace quicsand::util {

namespace {

/// Civil-from-days algorithm (Howard Hinnant, public domain).
struct CivilDate {
  int year;
  unsigned month;
  unsigned day;
};

CivilDate civil_from_days(std::int64_t z) {
  z += 719468;
  const std::int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const std::int64_t y = static_cast<std::int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  const unsigned d = doy - (153 * mp + 2) / 5 + 1;
  const unsigned m = mp < 10 ? mp + 3 : mp - 9;
  return {static_cast<int>(y + (m <= 2)), m, d};
}

}  // namespace

std::string format_utc(Timestamp t) {
  std::int64_t secs = t.count() / kSecond.count();
  std::int64_t days = secs / 86400;
  std::int64_t sod = secs % 86400;
  if (sod < 0) {
    sod += 86400;
    days -= 1;
  }
  const CivilDate cd = civil_from_days(days);
  std::array<char, 32> buf{};
  std::snprintf(buf.data(), buf.size(), "%04d-%02u-%02u %02lld:%02lld:%02lld",
                cd.year, cd.month, cd.day,
                static_cast<long long>(sod / 3600),
                static_cast<long long>((sod / 60) % 60),
                static_cast<long long>(sod % 60));
  return buf.data();
}

std::string format_duration(Duration d) {
  if (d < Duration{}) return std::string(1, '-').append(format_duration(-d));
  const std::int64_t secs = d / kSecond;
  std::array<char, 48> buf{};
  if (secs >= 48 * 3600) {
    std::snprintf(buf.data(), buf.size(), "%lldd%lldh",
                  static_cast<long long>(secs / 86400),
                  static_cast<long long>((secs % 86400) / 3600));
  } else if (secs >= 3600) {
    std::snprintf(buf.data(), buf.size(), "%lldh%lldm",
                  static_cast<long long>(secs / 3600),
                  static_cast<long long>((secs % 3600) / 60));
  } else if (secs >= 60) {
    std::snprintf(buf.data(), buf.size(), "%lldm%llds",
                  static_cast<long long>(secs / 60),
                  static_cast<long long>(secs % 60));
  } else {
    std::snprintf(buf.data(), buf.size(), "%llds",
                  static_cast<long long>(secs));
  }
  return buf.data();
}

}  // namespace quicsand::util
