module diffgossip/benchmark

go 1.24

require diffgossip v0.0.0

replace diffgossip => ../
