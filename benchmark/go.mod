module simba/benchmark

go 1.24

require simba v0.0.0

replace simba => ../
