// Rule 7 negative fixture: the UnitManager is the one owner of the
// "unit" collection watch.
namespace fixture {

struct Store;

inline void own_units(Store& store) {
  store.watch("unit", "", [](const Event&) {});
}

}  // namespace fixture
