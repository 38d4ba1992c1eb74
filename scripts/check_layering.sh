#!/bin/sh
# Layering grep (ctest layering): src/CMakeLists.txt's ECO_SUBSYSTEMS lists
# the libraries bottom-up, and a file under src/<L>/ may include "<M>/..."
# only when M is L or comes before L in that list (so core never includes
# engine). One exception: support/NestHash.h includes ir/; it is
# header-only and perfbench still includes it (ROADMAP.md).
# Usage: scripts/check_layering.sh [REPO_ROOT]
# Exit status: 0 clean, 1 upward includes found (listed), 2 no such tree.
cd "${1:-$(dirname "$0")/..}" && [ -f src/CMakeLists.txt ] || exit 2
Order=$(sed -n '/^set(ECO_SUBSYSTEMS/,/)/p' src/CMakeLists.txt |
  tr -d '()' | tr -s ' \n' '  ' | sed 's/^ *setECO_SUBSYSTEMS *//')
[ -n "$Order" ] || exit 2
Hits=$(grep -rnE --include='*.h' --include='*.cpp' '^#include "[a-z]+/' src |
  awk -v Order="$Order" '
    BEGIN { N = split(Order, L, " "); for (I = 1; I <= N; ++I) Rank[L[I]] = I }
    {
      split($0, Path, "/"); From = Path[2]
      match($0, /#include "[a-z]+\//); To = substr($0, RSTART + 10, RLENGTH - 11)
      if ((From in Rank) && (To in Rank) && Rank[To] > Rank[From]) print
    }' | grep -vE '^src/support/NestHash\.h:[0-9]+:#include "ir/')
[ -z "$Hits" ] && exit 0
printf 'includes of a later layer (order: %s):\n%s\n' "$Order" "$Hits"
exit 1
