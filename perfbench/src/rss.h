// Peak resident set size of this process, from /proc/self/status.

#ifndef PERFBENCH_RSS_H_
#define PERFBENCH_RSS_H_

#include <cstdint>
#include <string_view>

namespace perfbench {

/// Parses the "VmHWM:   <n> kB" line of a /proc/<pid>/status text into
/// KiB. False when the line is missing or malformed.
bool ParsePeakRssKiB(std::string_view status_text, uint64_t* kib);

/// Peak RSS (VmHWM) of this process in MiB; -1 when unreadable.
double PeakRssMiB();

}  // namespace perfbench

#endif  // PERFBENCH_RSS_H_
