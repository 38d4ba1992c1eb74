#!/bin/sh
# Lock-discipline grep (ctest no_raw_mutex): under src/ and examples/,
# raw std::mutex / condition_variable / lock_guard / unique_lock appear
# only in src/support/Sync.{h,cpp}, which wrap them. tests/ and bench/
# are not scanned. Usage: scripts/check_raw_mutex.sh [REPO_ROOT]
# Exit status: 0 clean, 1 raw uses found (listed), 2 no such tree.
cd "${1:-$(dirname "$0")/..}" && [ -d src ] && [ -d examples ] || exit 2
Hits=$(grep -rnE 'std::(mutex|condition_variable|lock_guard|unique_lock)' \
  src examples | grep -vE '^src/support/Sync\.(h|cpp):')
[ -z "$Hits" ] && exit 0
printf 'raw standard mutex types outside src/support/Sync.*:\n%s\n' "$Hits"
exit 1
