/// \file submit_oracle.h
/// \brief Test oracle for `svc::decode_submit`: the `POST /submit` rules
///        applied to a parsed `obs::Json` tree, as the route applied them
///        before it decoded bodies in one pass.
///
/// The tree states the rules plainly: parse the whole body (any syntax
/// error is "bad JSON"); a top-level `"tasks"` member makes it a batch
/// and must be an array; otherwise the body itself is the one task; each
/// task needs numeric `id` and `cycles`, integers a double holds exactly;
/// the first bad task names the error. `std::map` keeps the last of
/// repeated keys.
#pragma once

#include <cmath>
#include <span>
#include <string_view>
#include <vector>

#include "dvfs/obs/json.h"
#include "dvfs/svc/service.h"

namespace dvfs::test {

/// nullptr and `tasks` filled, or the 400 message and `tasks` empty.
inline const char* tree_decode_submit(std::string_view body,
                                      std::vector<svc::Submission>& tasks) {
  tasks.clear();
  obs::Json doc;
  try {
    doc = obs::Json::parse(body);
  } catch (const std::exception&) {
    return "bad JSON";
  }
  const bool batch = doc.contains("tasks");
  if (batch && !doc.at("tasks").is_array()) {
    return "\"tasks\" must be an array";
  }
  const std::span<const obs::Json> items =
      batch ? std::span(doc.at("tasks").as_array())
            : std::span<const obs::Json>(&doc, 1);
  const auto exact_integer = [](double v, double lo) {
    return v >= lo && v <= 9007199254740992.0 && std::floor(v) == v;
  };
  for (const obs::Json& task : items) {
    const char* const kNeedFields =
        "task needs numeric \"id\" and \"cycles\" fields";
    if (!task.is_object()) {
      tasks.clear();
      return kNeedFields;
    }
    const obs::Json::Object& fields = task.as_object();
    const auto id = fields.find("id");
    const auto cycles = fields.find("cycles");
    if (id == fields.end() || cycles == fields.end() ||
        !id->second.is_number() || !cycles->second.is_number()) {
      tasks.clear();
      return kNeedFields;
    }
    const double id_v = id->second.as_double();
    const double cycles_v = cycles->second.as_double();
    if (!exact_integer(id_v, 0.0) || !exact_integer(cycles_v, 1.0)) {
      tasks.clear();
      return "id and cycles must be integers in [0, 2^53] and [1, 2^53]";
    }
    tasks.push_back(
        {static_cast<core::TaskId>(id_v), static_cast<Cycles>(cycles_v)});
  }
  return nullptr;
}

}  // namespace dvfs::test
