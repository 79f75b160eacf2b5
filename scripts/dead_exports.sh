#!/bin/sh
# Dead-export gate: fails when a `val` declared in a lib/**/*.mli is
# named in no .ml file outside its own module, across lib/, bin/,
# bench/, examples/ and test/. A name counts as used wherever it appears
# as a word, so the gate can miss dead code but never flags a value that
# something reads.
#
#   sh scripts/dead_exports.sh
set -eu
cd "$(dirname "$0")/.."
status=0
for mli in $(find lib -name '*.mli' | sort); do
  ml="${mli%i}"
  for name in $(sed -n "s/^ *val \([a-z_][A-Za-z0-9_']*\).*/\1/p" "$mli" | sort -u); do
    if ! grep -rlw --include='*.ml' -e "$name" lib bin bench examples test \
      | grep -qvx "$ml"; then
      echo "$mli: val $name is named in no other module"
      status=1
    fi
  done
done
exit $status
