#!/bin/sh
# Line counts for the "simpler by count" tables in CHANGES.md, so nobody
# counts "lines above #[cfg(test)]" by hand again.
#
# Per crate (the facade, crates/*, vendor/*):
#   code   lines of src/**/*.rs above each file's first #[cfg(test)]
#          (a src/**/tests.rs file is a test module: all of it is "unit")
#   unit   in-module test lines (from the first #[cfg(test)] down)
#   tests  lines of tests/**/*.rs
# then the total and the five largest *.rs files.
#
#   tools/loc.sh            # the checkout this script sits in
#   tools/loc.sh <dir>      # another checkout (an exported parent commit)
set -eu

root=${1:-$(dirname "$0")/..}
cd "$root"

# "code unit" of the *.rs files under $1 (0 0 when there is none).
split_src() {
    [ -d "$1" ] || { echo "0 0"; return; }
    find "$1" -name '*.rs' | sort | while read -r f; do
        case $f in
            */tests.rs) awk 'END { print 0, NR }' "$f" ;;
            *) awk '!cut && /^[[:space:]]*#\[cfg\(test\)\]/ { cut = NR }
                    END { c = cut ? cut - 1 : NR; print c, NR - c }' "$f" ;;
        esac
    done | awk '{ c += $1; u += $2 } END { print c + 0, u + 0 }'
}

lines_under() {
    [ -d "$1" ] || { echo 0; return; }
    find "$1" -name '*.rs' -exec cat {} + | wc -l | tr -d ' '
}

printf '%-16s %7s %7s %7s\n' crate code unit tests
for manifest in Cargo.toml crates/*/Cargo.toml vendor/*/Cargo.toml; do
    dir=$(dirname "$manifest")
    name=$(awk -F'"' '/^name *=/ { print $2; exit }' "$manifest")
    set -- $(split_src "$dir/src")
    printf '%-16s %7d %7d %7d\n' "$name" "$1" "$2" "$(lines_under "$dir/tests")"
done | awk '{ print; c += $2; u += $3; t += $4 }
            END { printf "%-16s %7d %7d %7d\n", "total", c, u, t }'

echo
echo "largest files:"
find . -name '*.rs' -not -path './target/*' -not -path './.*' -exec wc -l {} + |
    grep -v ' total$' | sort -rn | head -5
