module fivm/benchmark

go 1.24

require fivm v0.0.0

replace fivm => ../
