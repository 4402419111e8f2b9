#include "obs/jsonl_sink.hpp"

#include <cmath>
#include <cstdio>

#include "common/format.hpp"

namespace realtor::obs {
namespace {

void append_double(std::string& out, double value) {
  // Shortest round-trip form; JSON has no inf/nan, quote those.
  if (!std::isfinite(value)) {
    out += std::isnan(value) ? "\"nan\"" : (value > 0 ? "\"inf\"" : "\"-inf\"");
    return;
  }
  append_double_shortest(out, value);
}

}  // namespace

void append_json_escaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string format_jsonl(const TraceEvent& event) {
  std::string line;
  line.reserve(96);
  line += "{\"t\":";
  append_double(line, event.time);
  if (event.node != kInvalidNode) {
    line += ",\"node\":";
    append_u64(line, event.node);
  }
  line += ",\"kind\":\"";
  line += to_string(event.kind);
  line += '"';
  for (std::uint32_t i = 0; i < event.field_count; ++i) {
    const TraceField& field = event.fields[i];
    line += ",\"";
    append_json_escaped(line, field.key);
    line += "\":";
    switch (field.type) {
      case TraceField::Type::kUint:
        append_u64(line, field.u);
        break;
      case TraceField::Type::kDouble:
        append_double(line, field.d);
        break;
      case TraceField::Type::kString:
        line += '"';
        append_json_escaped(line, field.s != nullptr ? field.s : "");
        line += '"';
        break;
      case TraceField::Type::kBool:
        line += field.b ? "true" : "false";
        break;
      case TraceField::Type::kNone:
        line += "null";
        break;
    }
  }
  line += '}';
  return line;
}

JsonlSink::JsonlSink(std::ostream& out, std::size_t flush_every)
    : out_(&out), flush_every_(flush_every) {}

JsonlSink::JsonlSink(const std::string& path, std::size_t flush_every)
    : file_(path), flush_every_(flush_every) {
  if (file_.is_open()) out_ = &file_;
}

JsonlSink::~JsonlSink() {
  if (out_ != nullptr) flush();
}

void JsonlSink::drain_locked() {
  if (!buffer_.empty()) {
    out_->write(buffer_.data(),
                static_cast<std::streamsize>(buffer_.size()));
    buffer_.clear();
  }
  pending_ = 0;
  out_->flush();
}

void JsonlSink::on_event(const TraceEvent& event) {
  const std::string line = format_jsonl(event);
  std::lock_guard<std::mutex> lock(mutex_);
  ++lines_;
  if (flush_every_ == 0) {
    *out_ << line << '\n';
    return;
  }
  buffer_ += line;
  buffer_ += '\n';
  if (++pending_ >= flush_every_) drain_locked();
}

void JsonlSink::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  drain_locked();
}

}  // namespace realtor::obs
