// Small string/formatting helpers used across the project.
#ifndef SRC_SUPPORT_STR_H_
#define SRC_SUPPORT_STR_H_

#include <cstdarg>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace nsf {

// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// Joins `parts` with `sep`.
std::string StrJoin(const std::vector<std::string>& parts, const std::string& sep);

// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> StrSplit(const std::string& s, char sep);

bool StartsWith(const std::string& s, const std::string& prefix);
bool EndsWith(const std::string& s, const std::string& suffix);

// FNV-1a over a byte buffer; used for cheap content fingerprints in tests and
// output validation.
uint64_t Fnv1a(const uint8_t* data, size_t size);
uint64_t Fnv1a(const std::string& s);

double GeoMean(const std::vector<double>& xs);
double Median(std::vector<double> xs);

// Renders an aligned ASCII table; row 0 is the header.
std::string RenderTable(const std::vector<std::vector<std::string>>& rows);

// Renders a horizontal ASCII bar chart: one row per (label, value).
std::string RenderBars(const std::vector<std::pair<std::string, double>>& data, double unit_value,
                       const std::string& unit_label, int width = 48);

}  // namespace nsf

#endif  // SRC_SUPPORT_STR_H_
