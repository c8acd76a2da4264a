#include "rss.h"

#include <cctype>
#include <fstream>
#include <sstream>
#include <string>

namespace perfbench {

bool ParsePeakRssKiB(std::string_view status_text, uint64_t* kib) {
  constexpr std::string_view kKey = "VmHWM:";
  size_t pos = 0;
  while (pos < status_text.size()) {
    size_t eol = status_text.find('\n', pos);
    if (eol == std::string_view::npos) eol = status_text.size();
    std::string_view line = status_text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.substr(0, kKey.size()) != kKey) continue;
    size_t i = kKey.size();
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    uint64_t value = 0;
    size_t digits = 0;
    for (; i < line.size() && std::isdigit(static_cast<unsigned char>(line[i]));
         ++i, ++digits) {
      if (value > (UINT64_MAX - 9) / 10) return false;
      value = value * 10 + static_cast<uint64_t>(line[i] - '0');
    }
    while (i < line.size() && line[i] == ' ') ++i;
    if (digits == 0 || line.substr(i) != "kB") return false;
    *kib = value;
    return true;
  }
  return false;
}

double PeakRssMiB() {
  std::ifstream in("/proc/self/status");
  if (!in) return -1.0;
  std::stringstream text;
  text << in.rdbuf();
  uint64_t kib = 0;
  if (!ParsePeakRssKiB(text.str(), &kib)) return -1.0;
  return static_cast<double>(kib) / 1024.0;
}

}  // namespace perfbench
