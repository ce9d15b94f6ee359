// Lint fixture: a latency literal in SubmitAt's extra-cost argument, split
// over two lines (rule 5).
namespace fixture {
Timestamp Apply(Node* node, Timestamp t, unsigned long applied) {
  return node->cpu()->SubmitAt(
      t, 0, applied * options_.per_row + applied * 2000);
}
}  // namespace fixture
