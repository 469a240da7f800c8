// Rule 7 fixture: only the UnitManager may watch the "unit" collection.
// A second watcher here — on one line or split across lines — is a
// violation; a watch on another bucket and a comment are not:
// store.watch("unit", "", cb) in a comment is documentation.
namespace fixture {

struct Store;

inline void follow_units(Store& store) {
  store.watch("unit", "", [](const Event&) {});     // EXPECT: lint-rule7
  store.watch(                                      // EXPECT: lint-rule7
      "unit", "unit.1", [](const Event&) {});
  store.watch("agent.pilot.0000", "", [](const Event&) {});
  store.unwatch(handle);
}

}  // namespace fixture
