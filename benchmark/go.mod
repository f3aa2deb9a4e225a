module pasgal/benchmark

go 1.22

require pasgal v0.0.0

replace pasgal => ../
