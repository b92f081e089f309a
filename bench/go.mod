module dimboost/bench

go 1.22

require dimboost v0.0.0

replace dimboost => ../
