#!/bin/sh
# Print the MD5 of every checkpoint a short vmdg serve run writes, one
# line per file, for a rule to diff against ckpt_bytes.expected.  The
# expected digests pin the checkpoint format byte for byte.  They were
# taken with every field padded uniformly in memory: a checkpoint must
# not depend on how narrowly a field is padded.  check_every matches
# checkpoint_every because periodic checkpoints are written only at
# health-check windows.
#   usage: sh ckpt_bytes_test.sh path/to/vmdg.exe path/to/jobs.json
set -eu
vmdg=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
jobs=$(cd "$(dirname "$2")" && pwd)/$(basename "$2")
d=$(mktemp -d)
trap 'rm -rf "$d"' EXIT
"$vmdg" serve "$jobs" -j 1 --root "$d/root" > /dev/null
cd "$d/root/jobs"
md5sum */ckpt_*.vmdg | LC_ALL=C sort -k 2
