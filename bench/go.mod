module wfqsort/bench

go 1.22

require wfqsort v0.0.0

replace wfqsort => ../
