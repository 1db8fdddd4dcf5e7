module leime/benchmark

go 1.22

require leime v0.0.0

replace leime => ../
