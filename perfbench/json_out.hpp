// Minimal JSON writer for the harness's one-object outputs.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace pb {

class JsonWriter {
 public:
  void begin_object(const char* key = nullptr) { open(key, '{'); }
  void end_object() { close('}'); }
  void begin_array(const char* key) { open(key, '['); }
  void end_array() { close(']'); }

  void field(const char* key, double v) {
    prefix(key);
    if (!std::isfinite(v)) {
      out_ += "null";
      return;
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out_ += buf;
  }
  void field(const char* key, std::uint64_t v) {
    prefix(key);
    out_ += std::to_string(v);
  }
  void field(const char* key, std::string_view v) {
    prefix(key);
    quote(v);
  }
  void field(const char* key, const char* v) { field(key, std::string_view(v)); }
  void item(std::string_view v) { field(nullptr, v); }
  void item(double v) { field(nullptr, v); }
  void array(const char* key, const std::vector<double>& values) {
    begin_array(key);
    for (const double v : values) item(v);
    end_array();
  }
  /// A member whose value is already serialized JSON.
  void raw(const char* key, std::string_view json) {
    prefix(key);
    out_ += json;
  }

  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  void open(const char* key, char bracket) {
    prefix(key);
    out_ += bracket;
    first_.push_back(true);
  }
  void close(char bracket) {
    out_ += bracket;
    first_.pop_back();
  }
  void prefix(const char* key) {
    if (!first_.empty()) {
      if (!first_.back()) out_ += ',';
      first_.back() = false;
    }
    if (key != nullptr) {
      quote(key);
      out_ += ':';
    }
  }
  void quote(std::string_view s) {
    out_ += '"';
    for (const char ch : s) {
      if (ch == '"' || ch == '\\') {
        out_ += '\\';
        out_ += ch;
      } else if (static_cast<unsigned char>(ch) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", ch);
        out_ += buf;
      } else {
        out_ += ch;
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<bool> first_;
};

}  // namespace pb
