#include "src/support/str.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace nsf {

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int n = vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n) + 1);
    vsnprintf(out.data(), out.size(), fmt, args_copy);
    out.resize(static_cast<size_t>(n));
  }
  va_end(args_copy);
  return out;
}

std::string StrJoin(const std::vector<std::string>& parts, const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); i++) {
    if (i != 0) {
      out += sep;
    }
    out += parts[i];
  }
  return out;
}

std::vector<std::string> StrSplit(const std::string& s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

uint64_t Fnv1a(const uint8_t* data, size_t size) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < size; i++) {
    h ^= data[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t Fnv1a(const std::string& s) {
  return Fnv1a(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

double GeoMean(const std::vector<double>& xs) {
  if (xs.empty()) {
    return 0;
  }
  double log_sum = 0;
  for (double x : xs) {
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

double Median(std::vector<double> xs) {
  if (xs.empty()) {
    return 0;
  }
  std::sort(xs.begin(), xs.end());
  size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

std::string RenderTable(const std::vector<std::vector<std::string>>& rows) {
  if (rows.empty()) {
    return "";
  }
  std::vector<size_t> widths;
  for (const auto& row : rows) {
    if (widths.size() < row.size()) {
      widths.resize(row.size(), 0);
    }
    for (size_t c = 0; c < row.size(); c++) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::string out;
  for (size_t r = 0; r < rows.size(); r++) {
    for (size_t c = 0; c < rows[r].size(); c++) {
      std::string cell = rows[r][c];
      cell.resize(widths[c], ' ');
      out += cell;
      if (c + 1 != rows[r].size()) {
        out += "  ";
      }
    }
    out += "\n";
    if (r == 0) {
      for (size_t c = 0; c < widths.size(); c++) {
        out += std::string(widths[c], '-');
        if (c + 1 != widths.size()) {
          out += "  ";
        }
      }
      out += "\n";
    }
  }
  return out;
}

std::string RenderBars(const std::vector<std::pair<std::string, double>>& data,
                       double unit_value, const std::string& unit_label, int width) {
  double max_v = 0;
  size_t max_label = 0;
  for (const auto& [label, v] : data) {
    max_v = std::max(max_v, v);
    max_label = std::max(max_label, label.size());
  }
  if (max_v <= 0) {
    max_v = 1;
  }
  std::string out;
  for (const auto& [label, v] : data) {
    std::string padded = label;
    padded.resize(max_label, ' ');
    int bars = static_cast<int>(v / max_v * width + 0.5);
    out += StrFormat("%s |%s%s %.3f%s\n", padded.c_str(), std::string(bars, '#').c_str(),
                     std::string(width - bars, ' ').c_str(), v, unit_label.c_str());
  }
  if (unit_value > 0) {
    out += StrFormat("(reference line: %.2f%s)\n", unit_value, unit_label.c_str());
  }
  return out;
}

}  // namespace nsf
