# Prints the hostile serve session that test/pins/dune feeds to
# `stellar-cup serve --stdio`, one request per line; the comment on
# that rule says what each line tests.
printf '%100000s' | tr ' ' '['; echo
printf '%1048577s' | tr ' ' x; echo
echo '{"id":"n","verb":"run","graph":"random","non_sink":-3}'
echo '{"id":"j","verb":"analyze","file":"../fixtures/live_network.fbas","cap":0,"jobs":64}'
echo '{"id":"p","verb":"ping"}'
echo '{"id":"s","verb":"stats"}'
