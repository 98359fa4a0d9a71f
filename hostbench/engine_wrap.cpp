// Link-time wrapper around sim::Engine::run, linked into both harness
// binaries (-Wl,--wrap=_ZN7parcoll3sim6Engine3runEv). It stamps the start
// of the event loop, which ends the run's set-up phase, and tells the layer
// probes which engine's fibers they are inside. One span per run costs
// nothing measurable, so the untraced binary carries it too.
#include "probes.hpp"

extern "C" {

void __real__ZN7parcoll3sim6Engine3runEv(parcoll::sim::Engine* engine);

void __wrap__ZN7parcoll3sim6Engine3runEv(parcoll::sim::Engine* engine) {
  // The event loop is the scheduler itself, on the main stack: its span is
  // opened before the engine is marked active, so it is never mistaken for
  // a call that yielded.
  const hostbench::Probe probe(hostbench::Layer::kSimRun);
  const hostbench::EngineScope scope(engine);
  __real__ZN7parcoll3sim6Engine3runEv(engine);
}

}  // extern "C"
