module microrec/benchmark

go 1.22

require microrec v0.0.0

replace microrec => ../
