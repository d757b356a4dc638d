#include "spans.hpp"

#include <fstream>

namespace rotabench {

Spans::Spans(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

Spans::Scope::Scope(Spans& spans, const char* name) : spans_(spans) {
  if (spans_.enabled_) index_ = spans_.open(name);
}

Spans::Scope::~Scope() {
  if (index_ >= 0) spans_.close(index_);
}

int Spans::open(const char* name) {
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start = seconds_between(origin_, Clock::now());
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void Spans::close(int index) {
  spans_[static_cast<std::size_t>(index)].end =
      seconds_between(origin_, Clock::now());
  stack_.pop_back();
}

std::map<std::string, SpanTotals> Spans::by_name() const {
  // Children nest strictly inside their parent and never overlap each
  // other (one thread), so a parent's covered time is the sum of its
  // direct children's durations.
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    SpanTotals& t = out[s.name];
    t.total_ms += (s.end - s.start) * 1e3;
    t.self_ms += (s.end - s.start - child_s[i]) * 1e3;
    ++t.count;
  }
  return out;
}

std::map<std::string, double> Spans::self_ms_by_layer() const {
  std::map<std::string, double> out;
  for (const auto& [name, totals] : by_name()) {
    out[name.substr(0, name.find('.'))] += totals.self_ms;
  }
  return out;
}

bool Spans::write_json(const std::string& path) const {
  std::ofstream out(path);
  out.precision(12);
  out << "{\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",") << "\n{\"id\":" << i << ",\"name\":\""
        << s.name << "\",\"start_s\":" << s.start << ",\"end_s\":" << s.end
        << ",\"parent\":" << s.parent << '}';
  }
  out << "\n]}\n";
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace rotabench
