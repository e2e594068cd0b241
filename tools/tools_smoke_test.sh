#!/usr/bin/env bash
# Smoke test of the image tools: mkfs_lfs formats a 16 MB image, lfsck finds
# it clean, every lfsdump command runs, a flipped payload byte is reported by
# both, and neither lfsck nor lfsdump creates a missing image or changes a
# truncated one.
#
#   usage: tools_smoke_test.sh <mkfs_lfs> <lfsck> <lfsdump>

set -u
mkfs=$1
lfsck=$2
lfsdump=$3
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
fail() {
  echo "FAIL: $*" >&2
  exit 1
}

img=$dir/fresh.img
"$mkfs" "$img" 16 > /dev/null || fail "mkfs_lfs"
"$lfsck" "$img" > /dev/null || fail "lfsck exits $? on a fresh image, want 0"
for cmd in super checkpoints segments logs "segment 0" crcs imap "inode 1"; do
  # shellcheck disable=SC2086  # "segment 0" and "inode 1" are two arguments
  "$lfsdump" "$img" $cmd > /dev/null || fail "lfsdump $cmd exits $?, want 0"
done

# Flip the last byte of segment 0's first payload block.
super=$("$lfsdump" "$img" super)
bs=$(echo "$super" | awk '/^block size/ {print $3}')
seg_start=$(echo "$super" | sed -n 's/.*(first at block \([0-9]*\)).*/\1/p')
offset=$(( (seg_start + 2) * bs - 1 ))
byte=$(od -An -tu1 -j "$offset" -N1 "$img" | tr -d ' ')
printf "\\$(printf '%03o' $(( byte ^ 1 )))" |
  dd of="$img" bs=1 seek="$offset" conv=notrunc status=none
json=$("$lfsck" "$img" --json)
rc=$?
[ "$rc" -eq 1 ] || fail "lfsck exits $rc on a flipped payload byte, want 1"
case $json in
  *'"segchain.payload_crc"'*) ;;
  *) fail "lfsck --json does not report segchain.payload_crc: $json" ;;
esac
bad=$("$lfsdump" "$img" crcs | awk '$1 == "0" {print $5}')
[ "$bad" = 1 ] || fail "lfsdump crcs reports '$bad' bad partials in segment 0, want 1"

# Neither tool creates a missing image.
missing=$dir/missing.img
"$lfsck" "$missing" > /dev/null 2>&1
rc=$?
[ "$rc" -eq 2 ] || fail "lfsck exits $rc on a missing image, want 2"
[ -e "$missing" ] && fail "lfsck created $missing"
"$lfsdump" "$missing" super > /dev/null 2>&1
rc=$?
[ "$rc" -eq 2 ] || fail "lfsdump exits $rc on a missing image, want 2"
[ -e "$missing" ] && fail "lfsdump created $missing"

# Neither tool changes a truncated image; lfsck refuses its geometry.
cut=$dir/cut.img
"$mkfs" "$cut" 16 > /dev/null || fail "mkfs_lfs"
truncate -s 8M "$cut"
sum=$(sha256sum < "$cut")
"$lfsck" "$cut" > /dev/null 2>&1
rc=$?
[ "$rc" -eq 2 ] || fail "lfsck exits $rc on a truncated image, want 2"
for cmd in super checkpoints segments crcs imap; do
  "$lfsdump" "$cut" $cmd > /dev/null 2>&1
done
[ "$(stat -c %s "$cut")" -eq $((8 * 1024 * 1024)) ] || fail "the truncated image changed size"
[ "$(sha256sum < "$cut")" = "$sum" ] || fail "the truncated image changed"
echo "tools smoke test passed"
