// Lint fixture: a file none of the lint rules may flag.
namespace fixture {
struct Status {
  bool ok() const { return true; }
};
Status DoWork();

int Clean() {
  std::thread* waived = nullptr;  // thread-ok: fixture for the rule-4 waiver
  (void)waived;
  int unused = 0;
  (void)unused;  // plain variable silencing: not a discarded call
  // discard-ok: best-effort call in a fixture.
  (void)DoWork();
  return 0;
}

// Rule 5: costs come from the table; a literal 0 (no cost) and literals in
// a bytes argument are fine, and a waived literal passes.
void Charges(Node* node, Timestamp t, unsigned long n, DeviceParams* p) {
  node->cpu()->Access(0, cost::kRowOp * n);
  t = node->nic()->SubmitAt(t, n * 4096, 0, &wait);
  t = node->storage()->SubmitAt(t, 64 * n);
  node->cpu()->Access(0, 1500);  // cost-ok: fixture for the rule-5 waiver
  p->base_latency = 0;
  p->base_latency = cost::kEbpLruOp;
}
}  // namespace fixture
