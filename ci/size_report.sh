#!/usr/bin/env bash
# Prints the repo's size figures: tracked line counts of src/, bench/
# (without the golden/ outputs) and tests/, and the number of fields in
# StoreOptions. ci/check.sh runs it last, and CHANGES.md quotes its output
# rather than hand counts.
#
# Usage: ci/size_report.sh   (from anywhere inside a git checkout)
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$REPO_ROOT"

# Lines of every tracked file under the given pathspecs.
count_lines() {
  git ls-files -z -- "$@" | xargs -0 cat | wc -l
}

# Members of `struct StoreOptions`: non-comment lines inside the struct
# that end a declaration (a member split over two lines counts once).
store_options_fields() {
  awk '/^struct StoreOptions \{/ { inside = 1; next }
       inside && /^\};/ { exit }
       inside && !/^[[:space:]]*\/\// && /;/ { n++ }
       END { print n + 0 }' src/core/complex_object_store.h
}

echo "src lines:           $(count_lines src)"
echo "bench lines:         $(count_lines bench ':(exclude)bench/golden')"
echo "tests lines:         $(count_lines tests)"
echo "StoreOptions fields: $(store_options_fields)"
