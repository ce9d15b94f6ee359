// Lint fixture: a latency literal in Access's extra-cost argument (rule 5).
namespace fixture {
void Report(Node* node, unsigned count) {
  node->cpu()->Access(0, 200 * count);
}
}  // namespace fixture
