#!/usr/bin/env sh
# Fails when a `./build/<name>` command cited in the CI workflows, README.md,
# EXPERIMENTS.md or the verify skill names no executable in the build
# directory, so docs and CI cannot keep pointing at a binary that was
# renamed or deleted. Run it after a full build:
#
#   tools/check_binary_refs.sh [build-dir]
#
# Default build-dir: build. References are always read as `./build/<name>`;
# the argument only says where this checkout's build lives.
set -eu

BUILD_DIR="${1:-build}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$REPO_ROOT"

names="$(grep -ohE '\./build/[A-Za-z0-9_]+' .github/workflows/*.yml README.md \
    EXPERIMENTS.md .claude/skills/verify/SKILL.md | sed 's|^\./build/||' | sort -u)"

missing=0
for name in $names; do
  if [ ! -x "$BUILD_DIR/$name" ] || [ -d "$BUILD_DIR/$name" ]; then
    echo "error: ./build/$name is cited but $BUILD_DIR/$name is not an executable" >&2
    missing=1
  fi
done
[ "$missing" -eq 0 ] && echo "all $(echo "$names" | wc -w) cited ./build binaries exist"
exit "$missing"
