#ifndef AQV_IR_VIEWS_H_
#define AQV_IR_VIEWS_H_

#include <map>
#include <string>
#include <vector>

#include "base/result.h"
#include "ir/query.h"

namespace aqv {

/// Registry of named view definitions. The evaluator materializes a view on
/// demand when a query's FROM clause references its name; the rewriter reads
/// definitions from here and registers the auxiliary views (Section 4's
/// `Va`) it synthesizes.
class ViewRegistry {
 public:
  /// Registers `view`. Fails on duplicate names or an invalid definition.
  Status Register(ViewDef view);

  bool Has(const std::string& name) const { return views_.count(name) > 0; }
  Result<const ViewDef*> Get(const std::string& name) const;

  std::vector<std::string> ViewNames() const;

  /// Views whose definition reads `name` directly (their FROM names it),
  /// name-sorted: one step downstream of a table or view.
  const std::vector<std::string>& ReadersOf(const std::string& name) const;

  /// Monotonic registry version, bumped by every successful Register. Plan
  /// caches (src/service) read it to detect view DDL cheaply.
  uint64_t version() const { return version_; }

 private:
  std::map<std::string, ViewDef> views_;
  std::map<std::string, std::vector<std::string>> readers_;
  uint64_t version_ = 0;
};

}  // namespace aqv

#endif  // AQV_IR_VIEWS_H_
