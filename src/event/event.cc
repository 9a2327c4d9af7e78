#include "event/event.h"

#include <algorithm>
#include <tuple>
#include <vector>

namespace cep2asp {

bool ParseAttribute(const std::string& name, Attribute* out) {
  if (name == "value") {
    *out = Attribute::kValue;
  } else if (name == "lat") {
    *out = Attribute::kLat;
  } else if (name == "lon") {
    *out = Attribute::kLon;
  } else if (name == "ts") {
    *out = Attribute::kTs;
  } else if (name == "id") {
    *out = Attribute::kId;
  } else if (name == "ats") {
    *out = Attribute::kAuxTs;
  } else {
    return false;
  }
  return true;
}

const char* AttributeName(Attribute attr) {
  switch (attr) {
    case Attribute::kValue:
      return "value";
    case Attribute::kLat:
      return "lat";
    case Attribute::kLon:
      return "lon";
    case Attribute::kTs:
      return "ts";
    case Attribute::kId:
      return "id";
    case Attribute::kAuxTs:
      return "ats";
  }
  return "?";
}

Timestamp Tuple::tsb() const {
  CEP2ASP_DCHECK(!events_.empty());
  Timestamp out = events_[0].ts;
  for (const SimpleEvent& e : events_) out = std::min(out, e.ts);
  return out;
}

Timestamp Tuple::tse() const {
  CEP2ASP_DCHECK(!events_.empty());
  Timestamp out = events_[0].ts;
  for (const SimpleEvent& e : events_) out = std::max(out, e.ts);
  return out;
}

Timestamp Tuple::max_create_ts() const {
  Timestamp out = 0;
  for (const SimpleEvent& e : events_) out = std::max(out, e.create_ts);
  return out;
}

std::string Tuple::ToString() const {
  std::string out = "[";
  for (size_t i = 0; i < events_.size(); ++i) {
    if (i > 0) out += " ";
    out += EventTypeRegistry::Global()->Name(events_[i].type);
    out += '#';
    out += std::to_string(events_[i].id);
    out += '@';
    out += std::to_string(events_[i].ts);
  }
  out += "]";
  return out;
}

std::string MatchKey(const Tuple& tuple, bool ordered) {
  std::vector<std::tuple<EventTypeId, int64_t, Timestamp>> parts;
  parts.reserve(tuple.size());
  for (const SimpleEvent& e : tuple) {
    parts.emplace_back(e.type, e.id, e.ts);
  }
  if (!ordered) std::sort(parts.begin(), parts.end());
  std::string key;
  key.reserve(parts.size() * 16);
  for (const auto& [type, id, ts] : parts) {
    key += std::to_string(type);
    key += ':';
    key += std::to_string(id);
    key += ':';
    key += std::to_string(ts);
    key += ';';
  }
  return key;
}

}  // namespace cep2asp
