module gsight/benchmark

go 1.22

require gsight v0.0.0

replace gsight => ../
