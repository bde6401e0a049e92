module minoaner/bench

go 1.24

require minoaner v0.0.0

replace minoaner => ../
