# Sourced by the workflow steps that run commands expected to fail.
# expect CODE STREAM PATTERN COMMAND...: COMMAND exits CODE, writes no Traceback
# to stderr, and its STREAM (out or err) matches PATTERN unless PATTERN is empty
expect() {
  want=$1 stream=$2 pattern=$3; shift 3
  status=0
  "$@" > "$RUNNER_TEMP/out.txt" 2> "$RUNNER_TEMP/err.txt" || status=$?
  if [ "$status" -ne "$want" ] || { [ -n "$pattern" ] && ! grep -q -- "$pattern" "$RUNNER_TEMP/$stream.txt"; } || grep -q Traceback "$RUNNER_TEMP/err.txt"; then
    echo "$*: exit $status; expected $want${pattern:+, $stream matching $pattern} and no Traceback"; cat "$RUNNER_TEMP/out.txt" "$RUNNER_TEMP/err.txt"; exit 1
  fi
}
