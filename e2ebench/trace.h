// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded by the benchmark around its own calls into the
// library's public functions; nothing inside the library is traced.  A
// span's name is "<layer>.<operation>" (layer = the src/ module the
// called function lives in).  A span may cover a batch of `calls` calls
// so that sub-microsecond operations are timed without one clock read
// per call.  Spans stay in memory and are written as a Chrome
// trace_event file when the run ends.

#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

struct Span {
  std::string name;
  int parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t calls = 1;
  /// Work the engine itself does not do (decomposition replays and layer
  /// probes); excluded from the trace-overhead comparison.
  bool extra = false;

  [[nodiscard]] double ns() const {
    return static_cast<double>(end_ns - start_ns);
  }
  [[nodiscard]] std::string layer() const {
    return name.substr(0, name.find('.'));
  }
};

class Trace {
 public:
  [[nodiscard]] std::int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Time fn() as one span of `calls` calls, nested under the open span.
  template <typename Fn>
  decltype(auto) span(std::string name, std::uint64_t calls, bool extra,
                      Fn&& fn) {
    const int id = open(std::move(name), calls, extra);
    struct Closer {
      Trace* t;
      int id;
      ~Closer() { t->close(id); }
    } closer{this, id};
    return fn();
  }

  int open(std::string name, std::uint64_t calls = 1, bool extra = false) {
    spans_.push_back({std::move(name), current_, now(), 0, calls, extra});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void close(int id) {
    spans_[id].end_ns = now();
    current_ = spans_[id].parent;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Summed duration (ns) and calls of every span named `name`.
  [[nodiscard]] std::pair<double, std::uint64_t> total(
      const std::string& name) const {
    double ns = 0.0;
    std::uint64_t calls = 0;
    for (const Span& s : spans_)
      if (s.name == name) {
        ns += s.ns();
        calls += s.calls;
      }
    return {ns, calls};
  }

  /// Durations (ns) of every span named `name`, in record order.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_)
      if (s.name == name) out.push_back(s.ns());
    return out;
  }

  /// Self time per layer (ns): each span's duration minus the part its
  /// direct children cover.
  [[nodiscard]] std::map<std::string, double> self_ns_by_layer() const {
    std::vector<double> child_ns(spans_.size(), 0.0);
    for (const Span& s : spans_)
      if (s.parent >= 0) child_ns[s.parent] += s.ns();
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      out[spans_[i].layer()] += spans_[i].ns() - child_ns[i];
    return out;
  }

  /// Chrome trace_event JSON ("X" complete events, microseconds).
  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
          << "\",\"cat\":\"" << s.layer() << "\",\"ph\":\"X\",\"pid\":1,"
          << "\"tid\":1,\"ts\":" << static_cast<double>(s.start_ns) / 1e3
          << ",\"dur\":" << s.ns() / 1e3 << ",\"args\":{\"calls\":" << s.calls
          << ",\"parent\":" << s.parent << "}}";
    }
    out << "\n]}\n";
  }

 private:
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  int current_ = -1;
};

}  // namespace e2e
