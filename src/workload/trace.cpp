#include "dvfs/workload/trace.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>

namespace dvfs::workload {
namespace {

core::TaskClass parse_class(std::string_view s) {
  if (s == "batch") return core::TaskClass::kBatch;
  if (s == "interactive") return core::TaskClass::kInteractive;
  if (s == "non-interactive") return core::TaskClass::kNonInteractive;
  DVFS_REQUIRE(false, "unknown task class in CSV: " + std::string(s));
  return core::TaskClass::kBatch;  // unreachable
}

// Splits `line` into `out` (cleared first; reused across rows so a row
// costs no allocation once the vector has grown).
void split(std::string_view line, char sep,
           std::vector<std::string_view>& out) {
  out.clear();
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = line.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(line.substr(start));
      return;
    }
    out.push_back(line.substr(start, pos - start));
    start = pos + 1;
  }
}

double parse_double(std::string_view s, const char* what) {
  // Fast path: a from_chars parse that consumes the whole field and is a
  // normal number equals stod's (both round correctly). Everything else
  // (zero, subnormals, inf/nan, a '+' or space prefix, hex, out-of-range,
  // junk) takes the stod path, which defines what the format accepts and
  // how it fails; from_chars also handles "inf" inconsistently across
  // libcs.
  double fast = 0.0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), fast);
  if (ec == std::errc{} && ptr == s.data() + s.size() && std::isnormal(fast)) {
    return fast;
  }
  std::size_t used = 0;
  double v = 0.0;
  try {
    v = std::stod(std::string(s), &used);
  } catch (const std::invalid_argument&) {
    DVFS_REQUIRE(false, std::string("non-numeric ") + what);
  } catch (const std::out_of_range&) {
    DVFS_REQUIRE(false, std::string("out-of-range ") + what);
  }
  // Checked outside the try: PreconditionError is an invalid_argument, so
  // the handler above would rewrap it as "non-numeric".
  DVFS_REQUIRE(used == s.size(), std::string("trailing junk in ") + what);
  return v;
}

std::uint64_t parse_u64(std::string_view s, const char* what) {
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  DVFS_REQUIRE(ec == std::errc{} && ptr == s.data() + s.size(),
               std::string("bad unsigned integer in ") + what);
  return v;
}

}  // namespace

Trace::Trace(std::vector<core::Task> tasks) : tasks_(std::move(tasks)) {
  for (const core::Task& t : tasks_) {
    DVFS_REQUIRE(core::is_valid(t), "invalid task in trace: " + describe(t));
  }
  const auto by_arrival_then_id = [](const core::Task& a,
                                     const core::Task& b) {
    if (a.arrival != b.arrival) return a.arrival < b.arrival;
    return a.id < b.id;
  };
  if (!std::is_sorted(tasks_.begin(), tasks_.end(), by_arrival_then_id)) {
    std::stable_sort(tasks_.begin(), tasks_.end(), by_arrival_then_id);
  }
}

std::size_t Trace::count(core::TaskClass klass) const {
  std::size_t n = 0;
  for (const core::Task& t : tasks_) {
    if (t.klass == klass) ++n;
  }
  return n;
}

Cycles Trace::total_cycles() const {
  Cycles total = 0;
  for (const core::Task& t : tasks_) total += t.cycles;
  return total;
}

Trace Trace::merge(const Trace& a, const Trace& b) {
  std::vector<core::Task> all;
  all.reserve(a.size() + b.size());
  all.insert(all.end(), a.tasks().begin(), a.tasks().end());
  all.insert(all.end(), b.tasks().begin(), b.tasks().end());
  return Trace(std::move(all));
}

Trace Trace::slice(Seconds from, Seconds to) const {
  DVFS_REQUIRE(from >= 0.0 && to > from, "need 0 <= from < to");
  std::vector<core::Task> window;
  for (const core::Task& t : tasks_) {
    if (t.arrival < from || t.arrival >= to) continue;
    core::Task shifted = t;
    shifted.arrival -= from;
    if (shifted.has_deadline()) shifted.deadline -= from;
    window.push_back(shifted);
  }
  return Trace(std::move(window));
}

void write_csv(const Trace& trace, std::ostream& os) {
  os << "id,arrival,cycles,class,deadline\n";
  os.precision(17);
  for (const core::Task& t : trace.tasks()) {
    os << t.id << ',' << t.arrival << ',' << t.cycles << ','
       << core::to_string(t.klass) << ',';
    if (t.has_deadline()) os << t.deadline;
    os << '\n';
  }
}

void write_csv_file(const Trace& trace, const std::string& path) {
  std::ofstream os(path);
  DVFS_REQUIRE(os.good(), "cannot open trace file for writing: " + path);
  write_csv(trace, os);
  DVFS_REQUIRE(os.good(), "write failed: " + path);
}

Trace read_csv(std::istream& is) {
  std::string line;
  DVFS_REQUIRE(static_cast<bool>(std::getline(is, line)),
               "empty trace stream");
  DVFS_REQUIRE(line.rfind("id,arrival,cycles,class", 0) == 0,
               "missing CSV header");
  std::vector<core::Task> tasks;
  std::vector<std::string_view> fields;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    split(line, ',', fields);
    DVFS_REQUIRE(fields.size() == 5 || fields.size() == 4,
                 "CSV row must have 4 or 5 fields");
    core::Task t;
    t.id = parse_u64(fields[0], "id");
    t.arrival = parse_double(fields[1], "arrival");
    t.cycles = parse_u64(fields[2], "cycles");
    t.klass = parse_class(fields[3]);
    if (fields.size() == 5 && !fields[4].empty()) {
      t.deadline = parse_double(fields[4], "deadline");
    }
    tasks.push_back(t);
  }
  return Trace(std::move(tasks));
}

Trace read_csv_file(const std::string& path) {
  std::ifstream is(path);
  DVFS_REQUIRE(is.good(), "cannot open trace file for reading: " + path);
  return read_csv(is);
}

}  // namespace dvfs::workload
