// Field-list helpers for plain counter structs.
//
// A counter struct writes its field list out once, as a static `fields`
// visitor that calls visit(name, &Struct::member) for every field. Its
// +=, difference and JSON are then one-liners over that list instead of
// hand-kept copies of it, and the metrics registry mirrors the JSON
// (obs::export_json), so no view of the counters can drift from another.
#pragma once

#include "obs/json.hpp"

namespace parcoll::obs {

template <typename T>
void add_fields(T& into, const T& from) {
  T::fields([&](const char*, auto member) { into.*member += from.*member; });
}

template <typename T>
void subtract_fields(T& into, const T& from) {
  T::fields([&](const char*, auto member) { into.*member -= from.*member; });
}

/// {"name": value, ...} in field-list order.
template <typename T>
JsonValue fields_json(const T& value) {
  JsonValue doc = JsonValue::object();
  T::fields(
      [&](const char* name, auto member) { doc.set(name, value.*member); });
  return doc;
}

}  // namespace parcoll::obs
