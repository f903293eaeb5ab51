module trac/bench

go 1.22

require trac v0.0.0

replace trac => ../
