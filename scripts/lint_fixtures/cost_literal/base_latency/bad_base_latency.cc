// Lint fixture: a latency literal assigned to a device's base latency
// (rule 5).
namespace fixture {
void Configure(DeviceParams* p) {
  p->base_latency = 300;  // per-shard list maintenance
}
}  // namespace fixture
