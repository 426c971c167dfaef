module fchain/benchmark

go 1.24

require fchain v0.0.0

replace fchain => ../
