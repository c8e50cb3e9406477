module millipage/benchmark

go 1.22

require millipage v0.0.0

replace millipage => ../
