module scoop/bench

go 1.22

require scoop v0.0.0

replace scoop => ../
