#include "trace.hpp"

#include <cstdio>

namespace perfbench {

bool Tracer::writeJsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  for (const Span& span : spans_) {
    std::fprintf(out,
                 "{\"span\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%d,"
                 "\"request\":%llu}\n",
                 span.name, static_cast<long long>(span.startNs),
                 static_cast<long long>(span.endNs), span.parent,
                 static_cast<unsigned long long>(span.request));
  }
  for (const Count& count : counts_) {
    std::fprintf(out, "{\"count\":\"%s\",\"request\":%llu,\"value\":%.17g}\n", count.name,
                 static_cast<unsigned long long>(count.request), count.value);
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
