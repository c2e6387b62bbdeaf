#!/bin/sh
# Runs the committed mutants: each `tools/mutants/*.patch` is a small
# defect headed by the command that must catch it (its first line), then
# a line of prose, then a `git diff`. For each one this copies the tree
# (tracked and untracked files that exist, ignored ones left out) to a
# temp dir, `git apply`s the patch there and runs the command. Fails if
# a patch no longer applies (rewrite or delete it with the change that
# broke it) or if its command passes (the check no longer catches the
# defect). Also fails if a command fails on the tree as it is, which would
# catch every mutant for nothing. Builds nothing: every command is a
# `tools/*.sh` guard.
set -e
cd "$(dirname "$0")/.."
root=$(pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/clean"
# A tracked file deleted from the working tree is still listed: copy only
# what exists, so that tar has nothing to fail on.
git ls-files -z -co --exclude-standard |
  xargs -0 sh -c 'for f; do [ -e "$f" ] && printf "%s\0" "$f"; done' sh |
  tar -cf - --null -T - | tar -xf - -C "$tmp/clean"
status=0
broken=$(head -qn 1 tools/mutants/*.patch | sort -u | while read -r cmd; do
  (cd "$tmp/clean" && $cmd) >/dev/null 2>&1 || echo "FAIL \`$cmd\` fails on the unmutated tree"
done)
if [ -n "$broken" ]; then
  echo "$broken"
  status=1
fi
for p in tools/mutants/*.patch; do
  name=$(basename "$p" .patch)
  cmd=$(head -n 1 "$p")
  rm -rf "$tmp/mutant"
  cp -R "$tmp/clean" "$tmp/mutant"
  if ! (cd "$tmp/mutant" && git apply "$root/$p"); then
    echo "FAIL $name: the patch no longer applies"
    status=1
  elif (cd "$tmp/mutant" && $cmd) >/dev/null 2>&1; then
    echo "FAIL $name: survived, \`$cmd\` passes"
    status=1
  else
    echo "ok   $name: killed by \`$cmd\`"
  fi
done
exit $status
