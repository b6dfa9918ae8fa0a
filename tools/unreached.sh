#!/bin/sh
# Public items of the production crates that only their own definition
# and unit tests reach: each pub fn, const, static or type (struct, enum,
# trait, type alias) whose name, as a whole word, appears exactly once in
# the workspace's code outside its own file's unit tests — at its
# definition. Comments (doctests included) and `pub use` lines are not
# mentions; a file's unit tests are its lines from its first #[cfg(test)]
# down. Every other line counts: other files' unit tests, integration
# tests, the paper bins, the examples and the benchmark. Names are matched
# bare, so a name shared with any other identifier hides its item.
#
# Production crates: every crates/*/src but the paper harnesses (gx-bench)
# and the benchmark (gx-benchmark). Vendored stubs are neither items nor
# mentions.
#
# Printed today, each kept on purpose:
#   Scoring::mismatch_loss, RepeatFamily::alu_like   reached by doctests
#   flags::SECONDARY                                 a SAM format constant
#   MinimizerIndex::masked_hashes,
#   pairsim::read_matches_at                         unit-tested behaviour
#                                                    that stays
#
#   tools/unreached.sh            # the checkout this script sits in
#   tools/unreached.sh <dir>      # another checkout
set -eu

root=${1:-$(dirname "$0")/..}
cd "$root"

# Every workspace *.rs file, as "<path> <is-production>".
files() {
    find . -name '*.rs' -not -path './target/*' -not -path './vendor/*' \
        -not -path './.*' | sort | while read -r f; do
        case $f in
            ./crates/bench/*|./crates/benchmark/*) echo "$f 0" ;;
            ./crates/*/src/*) echo "$f 1" ;;
            *) echo "$f 0" ;;
        esac
    done
}

# The code lines that count, as "<prod> <path> <line> <unit> <text>", where
# <unit> is 1 inside the file's unit tests: no comment lines, no `pub use`
# lines, trailing comments cut.
files | while read -r f prod; do
    awk -v f="$f" -v prod="$prod" '
        /^[[:space:]]*#\[cfg\(test\)\]/ { unit = 1 }
        /^[[:space:]]*\/\// { next }
        /^[[:space:]]*pub(\([a-z]+\))? use / { next }
        { sub(/[[:space:]]\/\/.*/, ""); print prod, f, FNR, unit + 0, $0 }' "$f"
done | awk '
    # One pass: note the definitions of public items in production code,
    # tally each identifier, and tally it per file inside unit tests.
    {
        text = $0
        sub(/^[^ ]+ [^ ]+ [^ ]+ [^ ]+ /, "", text)
        if ($1 == 1 && !$4 && match(text, /^[[:space:]]*pub (const |unsafe |async |extern "C" )*(fn|const|static|struct|enum|trait|type) [A-Za-z_][A-Za-z0-9_]*/)) {
            n = split(substr(text, RSTART, RLENGTH), w, /[[:space:]]+/)
            count++
            where[count] = substr($2, 3) ":" $3 ": " w[n - 1] " " w[n]
            file[count] = $2
            name[count] = w[n]
        }
        gsub(/[^A-Za-z0-9_]+/, " ", text)
        k = split(text, tok, " ")
        for (i = 1; i <= k; i++) {
            seen[tok[i]]++
            if ($4) unit_seen[$2, tok[i]]++
        }
    }
    END {
        for (i = 1; i <= count; i++)
            if (seen[name[i]] - unit_seen[file[i], name[i]] == 1) print where[i]
    }'
