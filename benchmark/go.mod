module nebula/benchmark

go 1.22

require nebula v0.0.0

replace nebula => ../
