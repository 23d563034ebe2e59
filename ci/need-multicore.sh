# Sourced by the gates that claim something about -workers or -shards: on a
# single CPU the shards never run concurrently, so a pass would prove
# nothing and the gate refuses to run instead of passing silently.
if [ "$(nproc)" -lt 2 ]; then
  echo "$(basename "$0" .sh): nproc is $(nproc); parallel workers cannot be checked on one CPU" >&2
  exit 1
fi
