#include "harness.h"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "obs/crc32c.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace perfbench {

namespace fs = std::filesystem;

void Signature::Add(const void* data, std::size_t size) {
  crc_ = poisonrec::obs::Crc32c(data, size, crc_);
}

std::string Signature::Hex() const {
  char buffer[16];
  std::snprintf(buffer, sizeof(buffer), "%08x", crc_);
  return buffer;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  // VmHWM is the peak of this program's own address space. ru_maxrss
  // would also count the parent's pages inherited before exec, which
  // dominate for a small workload.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t CounterValue(const char* name) {
  return poisonrec::obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

std::uint64_t GemmCalls() {
  return CounterValue("poisonrec_gemm_nn_calls_total") +
         CounterValue("poisonrec_gemm_tn_calls_total") +
         CounterValue("poisonrec_gemm_nt_calls_total");
}

std::string JsonNumbers(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    poisonrec::obs::AppendJsonNumber(&out, values[i]);
  }
  return out + "]";
}

std::string JsonStrings(const std::vector<std::string>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    poisonrec::obs::AppendJsonString(&out, values[i]);
  }
  return out + "]";
}

std::string JsonArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ",";
    out += items[i];
  }
  return out + "]";
}

void ResetDirectory(const std::string& path) {
  fs::remove_all(path);
  fs::create_directories(path);
}

std::vector<double> FileSizes(const std::string& path,
                              const std::string& suffix) {
  std::vector<double> sizes;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(path, ec), end; it != end;
       it.increment(ec)) {
    if (ec) break;
    const std::string name = it->path().filename().string();
    if (it->is_regular_file() && name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      sizes.push_back(static_cast<double>(it->file_size()));
    }
  }
  return sizes;
}

}  // namespace perfbench
