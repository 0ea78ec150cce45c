module algorand/bench

go 1.22

require algorand v0.0.0

replace algorand => ../
