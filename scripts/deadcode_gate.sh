#!/usr/bin/env bash
# Dead-code reachability as a hard gate with a tracked allowlist.
#
# Builds every main package (cmd/*, examples/*, benchmark, plus the
# faultinject fheserver) with inlining off and the linker's dependency
# dump, then lists every non-test func and method declared under
# internal/ that the dump never mentions. Fails on any unreached name not
# listed in .lint/deadcode.allow, and on any allowlisted name that is
# reached again or no longer declared, so the list stays exact. Needs
# only the Go toolchain; about a minute on a laptop.
#
# Blind spot: a method of a type that is converted to an interface is
# linked whenever that interface method is called anywhere, so its body
# counts as reached even when no live caller runs it.
set -u
cd "$(dirname "$0")/.."
ALLOW=.lint/deadcode.allow

d=$(mktemp -d)
trap 'rm -rf "$d"' EXIT

for m in ./cmd/* ./examples/* ./benchmark; do
  if ! go build -gcflags=all=-l -ldflags=-dumpdep -o /dev/null "$m" 2>>"$d/deps"; then
    echo "deadcode_gate: build of $m failed" >&2
    exit 1
  fi
done
if ! go build -tags faultinject -gcflags=all=-l -ldflags=-dumpdep -o /dev/null ./cmd/fheserver 2>>"$d/deps"; then
  echo "deadcode_gate: faultinject build of ./cmd/fheserver failed" >&2
  exit 1
fi

# Dump edges "a -> b" become one symbol per line; generic instantiation
# brackets are dropped and pointer receivers spelled like value ones.
sed 's/ -> /\n/' "$d/deps" | grep '^mqxgo/' |
  sed -E ':a; s/\[[^][]*\]//; ta; s/\(\*/(/; s#^(mqxgo/[^.]+)\.([A-Za-z0-9_]+)\.([A-Za-z0-9_]+)$#\1.(\2).\3#' |
  sort -u >"$d/reached"

find internal -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | while read -r f; do
  grep -E '^func ' "$f" | sed -E "s#^func \(([A-Za-z0-9_]+ )?\*?([A-Za-z0-9_]+)(\[[^]]*\])?\) ([A-Za-z0-9_]+).*#mqxgo/${f%/*}.(\2).\4#; s#^func ([A-Za-z0-9_]+).*#mqxgo/${f%/*}.\1#"
done | grep -v '\.init$' | sort -u >"$d/declared"

comm -23 "$d/declared" "$d/reached" >"$d/unreached"
sed -E 's/#.*//; s/[[:space:]]+//g; /^$/d' "$ALLOW" | sort -u >"$d/allowed"

dead=$(comm -23 "$d/unreached" "$d/allowed")
stale=$(comm -13 "$d/unreached" "$d/allowed")
rc=0
if [ -n "$dead" ]; then
  echo "deadcode_gate: unreached from every binary and not in $ALLOW (delete them):" >&2
  printf '%s\n' "$dead" >&2
  rc=1
fi
if [ -n "$stale" ]; then
  echo "deadcode_gate: listed in $ALLOW but reached or no longer declared (drop the entry):" >&2
  printf '%s\n' "$stale" >&2
  rc=1
fi
if [ "$rc" -eq 0 ]; then
  echo "deadcode_gate: $(wc -l <"$d/unreached") unreached names, all in $ALLOW"
fi
exit "$rc"
