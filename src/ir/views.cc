#include "ir/views.h"

#include <algorithm>

#include "ir/validate.h"

namespace aqv {

Status ViewRegistry::Register(ViewDef view) {
  if (view.name.empty()) {
    return Status::InvalidArgument("view name is empty");
  }
  if (views_.count(view.name) > 0) {
    return Status::InvalidArgument("duplicate view '" + view.name + "'");
  }
  AQV_RETURN_NOT_OK(ValidateQuery(view.query));
  for (const TableRef& ref : view.query.from) {
    std::vector<std::string>& readers = readers_[ref.table];
    auto at = std::lower_bound(readers.begin(), readers.end(), view.name);
    if (at == readers.end() || *at != view.name) readers.insert(at, view.name);
  }
  std::string name = view.name;
  views_.emplace(std::move(name), std::move(view));
  ++version_;
  return Status::OK();
}

Result<const ViewDef*> ViewRegistry::Get(const std::string& name) const {
  auto it = views_.find(name);
  if (it == views_.end()) {
    return Status::NotFound("view '" + name + "' not registered");
  }
  return &it->second;
}

const std::vector<std::string>& ViewRegistry::ReadersOf(
    const std::string& name) const {
  static const std::vector<std::string> kNone;
  auto it = readers_.find(name);
  return it == readers_.end() ? kNone : it->second;
}

std::vector<std::string> ViewRegistry::ViewNames() const {
  std::vector<std::string> names;
  names.reserve(views_.size());
  for (const auto& [name, def] : views_) names.push_back(name);
  return names;
}

}  // namespace aqv
