#!/usr/bin/env sh
# Fail on new top-level mutable state in lib/.
#
# Every machine instance must be fully self-contained so the fleet can
# serve across OCaml domains: a process-global ref or table is shared
# by every domain and is either a data race or a hidden determinism
# leak (DESIGN.md §19). This lint greps for column-0 `let` bindings
# that allocate mutable state — `ref`, `Hashtbl.create`, array
# constructors and literals, `Bytes.make`/`Bytes.create`,
# `Buffer.create`, `Queue.create`, `Stack.create` — and fails on any
# hit not in the allowlist below.
#
# Allowlisted entries are read-only by convention (consulted, never
# written): array literals, and RAM's shared zero page, which no write
# reaches because `Ram` gives a page its own bytes before its first
# write. If you need new module-level state,
# prefer: scope it inside the initialisation expression (see
# lib/learn/corpus.ml), derive it positionally (lib/rules/builtin.ml),
# or make it an Atomic with a comment saying who writes it
# (lib/tcg/costs.ml). To extend the allowlist,
# add `file:line-prefix` here with a justification in the commit.

set -eu
cd "$(dirname "$0")/.."

allowlist='
lib/workloads/workloads.ml:let alu_targets = [|
lib/rules/pinmap.ml:let scratch = [|
lib/symexec/equiv.ml:let boundary = [|
lib/common/ram.ml:let zero_page = Bytes.make
'

pattern='^let [a-zA-Z_0-9]+ *(: *[^=]*)? *= *(ref |Hashtbl\.create|Array\.(make|init|create)|Bytes\.(make|create)|Buffer\.create|Queue\.create|Stack\.create|\[\|)'

hits=$(grep -rnE "$pattern" lib --include='*.ml' || true)

fail=0
while IFS= read -r hit; do
  [ -z "$hit" ] && continue
  file=${hit%%:*}
  rest=${hit#*:}
  decl=${rest#*:}
  allowed=0
  while IFS= read -r allow; do
    [ -z "$allow" ] && continue
    case "$file:$decl" in
      "$allow"*) allowed=1 ;;
    esac
  done <<ALLOW
$allowlist
ALLOW
  if [ "$allowed" -eq 0 ]; then
    printf 'lint-globals: top-level mutable state: %s\n' "$hit" >&2
    fail=1
  fi
done <<HITS
$hits
HITS

if [ "$fail" -ne 0 ]; then
  echo 'lint-globals: FAIL — new process-global mutable state in lib/' >&2
  echo '(thread it through, scope it, or justify an allowlist entry;' >&2
  echo ' see tools/lint-globals.sh)' >&2
  exit 1
fi
echo 'lint-globals: OK'
