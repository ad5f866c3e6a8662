module fedproxvr/bench

go 1.22

require fedproxvr v0.0.0

replace fedproxvr => ../
