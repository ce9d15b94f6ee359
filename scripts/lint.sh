#!/usr/bin/env bash
# lint.sh — repo-specific correctness lint for the veDB/AStore codebase.
#
# Rules (all greppable, no compiler needed):
#
#   1. pmem-raw-write: raw memcpy/memmove/memset is banned in the layers
#      that sit on top of the PMem abstraction (src/astore, src/net,
#      src/logstore, src/ebp). All bytes headed for persistent memory must
#      flow through the PmemDevice API so the persist checker sees them.
#      Genuinely volatile uses are waived with a `// pmem-ok` comment on
#      the same line.
#
#   2. pmem-api-bypass: PmemDevice::WriteFromRemote is the RDMA fabric's
#      private entry point. Calling it outside src/pmem and src/net
#      bypasses the fabric's DDIO/persistence model.
#
#   3. status-discard: a `(void)` cast that discards a call result must be
#      justified by a `discard-ok:` comment on the same line or within the
#      four preceding lines. (The compiler half of this rule is
#      [[nodiscard]] on Status/Result plus -Werror in CI; this half makes
#      sure every explicit discard says why.)
#
#   4. naked-thread: std::thread / pthread_* are banned outside src/sim.
#      All concurrency must go through the sim runtime (ActorGroup,
#      VirtualCondition, vedb::Mutex) so the deterministic scheduler, the
#      race detector, and the lock-order graph see every thread and lock.
#      A deliberate exception is waived with a `// thread-ok` comment on
#      the same line.
#
#   5. cost-literal: every virtual-time cost lives in src/common/cost_model.h.
#      A numeric literal in the extra-cost argument of `->Access(` (the
#      second) or `->SubmitAt(` (the third), or on the right of a
#      `base_latency =` assignment, anywhere in src/ outside that header
#      is rejected. A bare `0` (no cost) is fine, as is any literal in a
#      bytes argument such as `Access(0, ...)`. A deliberate exception is
#      waived with a `// cost-ok` comment on a line of the call.
#
# In addition, if clang-tidy is on PATH, it is run over src/ with the
# repo's .clang-tidy config. Containers without clang-tidy (like the CI
# sanitizer image) still get rules 1-5.
#
# Usage:
#   scripts/lint.sh                # lint the repo; exit 1 on any violation
#   scripts/lint.sh --self-test    # verify the rules trip on the seeded
#                                  # fixtures under scripts/lint_fixtures/
set -u

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$REPO_ROOT"

FAILED=0

note() { printf '%s\n' "$*"; }
fail() {
  printf 'lint: %s\n' "$*" >&2
  FAILED=1
}

# --- Rule 1: raw byte-level writes above the PMem API -----------------------
# Matches actual calls (`memcpy(`), not mentions in comments.
check_pmem_raw_write() {
  local -a dirs=("$@")
  local hits
  hits=$(grep -rnE '\b(memcpy|memmove|memset)[[:space:]]*\(' \
              --include='*.cc' --include='*.h' "${dirs[@]}" 2>/dev/null |
         grep -v 'pmem-ok')
  if [[ -n "$hits" ]]; then
    fail "raw memcpy/memmove/memset above the PmemDevice API (add the bytes
lint: through PmemDevice, or waive a volatile use with '// pmem-ok'):"
    printf '%s\n' "$hits" >&2
  fi
}

# --- Rule 2: WriteFromRemote outside the fabric -----------------------------
check_pmem_api_bypass() {
  local root="$1"
  local hits
  hits=$(grep -rnE '\bWriteFromRemote[[:space:]]*\(' \
              --include='*.cc' --include='*.h' "$root" 2>/dev/null |
         grep -vE "^$root/(pmem|net)/")
  if [[ -n "$hits" ]]; then
    fail "PmemDevice::WriteFromRemote called outside src/pmem and src/net
lint: (route remote writes through the RDMA fabric):"
    printf '%s\n' "$hits" >&2
  fi
}

# --- Rule 3: (void) discards need a discard-ok justification ----------------
check_status_discard() {
  local -a dirs=("$@")
  local file rule_failed=0
  while IFS= read -r file; do
    awk -v file="$file" '
      { lines[NR] = $0 }
      # A call result being discarded: "(void)" immediately followed by an
      # expression that contains a "(". Plain "(void)var;" silencing is fine.
      /\(void\)[[:space:]]*[A-Za-z_][^;]*\(/ {
        ok = 0
        for (i = NR; i >= NR - 4 && i >= 1; i--) {
          if (lines[i] ~ /discard-ok/) { ok = 1; break }
        }
        if (!ok) {
          printf "%s:%d: %s\n", file, NR, $0
          bad = 1
        }
      }
      END { exit bad }
    ' "$file" >&2 || rule_failed=1
  done < <(find "${dirs[@]}" \
               \( -name '*.cc' -o -name '*.h' -o -name '*.cpp' \) \
           2>/dev/null)
  if [[ $rule_failed -ne 0 ]]; then
    fail "unjustified (void) discard(s) above — explain each with a" \
         "'// discard-ok: <reason>' comment on or just above the line"
  fi
}

# --- Rule 4: no naked threads outside the sim runtime -----------------------
check_naked_threads() {
  local -a dirs=("$@")
  local hits
  hits=$(grep -rnE '\bstd::thread\b|\bpthread_[a-z_]+[[:space:]]*\(' \
              --include='*.cc' --include='*.h' "${dirs[@]}" 2>/dev/null |
         grep -v 'thread-ok')
  if [[ -n "$hits" ]]; then
    fail "naked std::thread/pthread_* outside src/sim (spawn through the
lint: sim runtime so the scheduler and detectors see it, or waive a
lint: deliberate use with '// thread-ok'):"
    printf '%s\n' "$hits" >&2
  fi
}

# --- Rule 5: cost literals outside the cost table ---------------------------
# Perl walks each call's balanced parentheses, so multi-line calls and nested
# calls in the arguments are handled; it prints file:line: for each hit.
check_cost_literals() {
  local root="$1"
  local hits
  hits=$(find "$root" \( -name '*.cc' -o -name '*.h' \) \
              ! -path '*/common/cost_model.h' -print0 2>/dev/null |
         xargs -0 -r perl -0777 -ne '
           our $src = $_;
           # A literal is a digit that does not continue an identifier.
           sub has_literal { my ($e) = @_; $e =~ s/^\s+|\s+$//g;
                             return $e ne "0" && $e =~ /(?<![A-Za-z_0-9])[0-9]/; }
           sub report { my ($start, $end, $what) = @_;
             my $text = substr($src, $start, $end - $start);
             return if $text =~ /cost-ok/;
             my $line = 1 + (substr($src, 0, $start) =~ tr/\n//);
             my ($first) = split /\n/, $text;
             print "$ARGV:$line: $what: $first\n"; }
           while ($src =~ /->(Access|SubmitAt)\s*\(/g) {
             my ($verb, $start, $i) = ($1, $-[0], $+[0]);
             my ($depth, $cur, @args) = (1, "");
             while ($i < length($src) && $depth > 0) {
               my $c = substr($src, $i++, 1);
               if ($c eq "(") { $depth++; }
               elsif ($c eq ")") { $depth--; last if $depth == 0; }
               elsif ($c eq "," && $depth == 1) { push @args, $cur; $cur = "";
                                                  next; }
               $cur .= $c;
             }
             push @args, $cur;
             # Lines of the call, with any trailing comment on the last one.
             my $eol = index($src, "\n", $i); $eol = length($src) if $eol < 0;
             my $cost = $args[$verb eq "Access" ? 1 : 2];
             report($start, $eol, "literal cost in $verb") if
                 defined $cost && has_literal($cost);
           }
           while ($src =~ /\bbase_latency\s*=(?!=)\s*([^;,]*)/g) {
             my ($start, $rhs) = ($-[0], $1);
             my $eol = index($src, "\n", $+[0]); $eol = length($src) if $eol < 0;
             report($start, $eol, "literal base_latency") if has_literal($rhs);
           }')
  if [[ -n "$hits" ]]; then
    fail "numeric cost literal outside src/common/cost_model.h (name the
lint: cost there and read the constant, or waive a deliberate exception
lint: with '// cost-ok'):"
    printf '%s\n' "$hits" >&2
  fi
}

# --- clang-tidy (optional: skipped when the toolchain lacks it) -------------
run_clang_tidy() {
  if ! command -v clang-tidy >/dev/null 2>&1; then
    note "lint: clang-tidy not found on PATH; skipping (rules 1-5 still ran)"
    return 0
  fi
  if [[ ! -f build/compile_commands.json ]]; then
    note "lint: no build/compile_commands.json; configure with" \
         "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON to enable clang-tidy"
    return 0
  fi
  local -a files
  mapfile -t files < <(find src -name '*.cc')
  if ! clang-tidy -p build --quiet "${files[@]}"; then
    fail "clang-tidy reported issues"
  fi
}

self_test() {
  # Each fixture seeds exactly one violation; every rule must trip on it.
  local fx="scripts/lint_fixtures"
  local st=0

  FAILED=0
  check_pmem_raw_write "$fx/raw_write"
  [[ $FAILED -eq 1 ]] || { echo "self-test: rule 1 did NOT trip" >&2; st=1; }

  FAILED=0
  check_pmem_api_bypass "$fx/bypass/src"
  [[ $FAILED -eq 1 ]] || { echo "self-test: rule 2 did NOT trip" >&2; st=1; }

  FAILED=0
  check_status_discard "$fx/discard"
  [[ $FAILED -eq 1 ]] || { echo "self-test: rule 3 did NOT trip" >&2; st=1; }

  FAILED=0
  check_naked_threads "$fx/threads"
  [[ $FAILED -eq 1 ]] || { echo "self-test: rule 4 did NOT trip" >&2; st=1; }

  FAILED=0
  check_cost_literals "$fx/cost_literal/access"
  [[ $FAILED -eq 1 ]] || { echo "self-test: rule 5 (Access) did NOT trip" >&2; st=1; }

  FAILED=0
  check_cost_literals "$fx/cost_literal/submit_at"
  [[ $FAILED -eq 1 ]] || { echo "self-test: rule 5 (SubmitAt) did NOT trip" >&2; st=1; }

  FAILED=0
  check_cost_literals "$fx/cost_literal/base_latency"
  [[ $FAILED -eq 1 ]] || { echo "self-test: rule 5 (base_latency) did NOT trip" >&2; st=1; }

  # And none of them may trip on the clean fixture.
  FAILED=0
  check_pmem_raw_write "$fx/clean"
  check_pmem_api_bypass "$fx/clean"
  check_status_discard "$fx/clean"
  check_naked_threads "$fx/clean"
  check_cost_literals "$fx/clean"
  [[ $FAILED -eq 0 ]] || { echo "self-test: false positive on clean fixture" >&2; st=1; }

  if [[ $st -eq 0 ]]; then
    echo "lint self-test: OK (5 rules trip on fixtures, clean file passes)"
  fi
  return $st
}

if [[ "${1:-}" == "--self-test" ]]; then
  self_test
  exit $?
fi

check_pmem_raw_write src/astore src/net src/logstore src/ebp src/topic \
                     src/qos
check_pmem_api_bypass src
check_status_discard src tests bench examples
check_naked_threads src/astore src/blob src/common src/ebp src/engine \
                    src/logstore src/net src/obs src/pagestore src/pmem \
                    src/query src/topic src/qos src/workload tests bench \
                    examples
check_cost_literals src
run_clang_tidy

if [[ $FAILED -eq 0 ]]; then
  echo "lint: OK"
fi
exit $FAILED
